"""Versioned per-host calibration profiles for the host pipeline timing model.

A :class:`HostProfile` is the measured side of
:func:`repro.engine.costmodel.timing.host_time_plan`: per-host throughput
and overhead constants that the profiler (:mod:`repro.engine.profile`,
CLI ``repro profile``) fills by running short microbenchmarks and persists
as a small versioned JSON file. Everything that consumes the timing model —
``host_time_plan`` itself, ``batch_size="auto"`` (through the
measured ``stream_cache_fraction``), and ``backend="auto"`` resolution —
takes a profile; when none is given, :data:`DEFAULT_HOST_PROFILE` supplies
the committed synthetic calibration (a mid-range workstation), which keeps
every prediction deterministic for tests and golden pins.

Resolution order (:func:`resolve_host_profile`): an explicit profile or
path beats the ``REPRO_HOST_PROFILE`` environment variable (pointing at a
profile written by ``repro profile``); with neither, the caller's fallback
(usually :data:`DEFAULT_HOST_PROFILE`) applies. The library never reads
the default on-disk location implicitly — consumption is always explicit,
so runs stay reproducible across hosts.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.errors import ReproError

__all__ = [
    "HOST_PROFILE_VERSION",
    "HOST_PROFILE_ENV",
    "DEFAULT_PROFILE_PATH",
    "DEFAULT_HOST_PROFILE",
    "HostProfile",
    "load_host_profile",
    "resolve_host_profile",
]

#: Format version of the persisted JSON; bump on incompatible field changes.
#: v2: ``process_efficiency`` is measured by the profiler (a real
#: ``ProcessBackend`` sweep) instead of shipping the documented default, so
#: v1 files — whose 0.70 was never a measurement — are rejected with a
#: re-profile pointer.
#: v3: the profiler calibrates every available kernel tier
#: (``kernel_reduce_bandwidth``) so ``kernel="auto"`` can rank
#: (kernel × backend) candidates; v2 files predate the kernel registry and
#: are rejected with the same re-profile pointer.
#: v4: the profiler measures the socket transport used by the cluster
#: backend (``loopback_bandwidth`` / ``loopback_latency_s``) so
#: ``cluster_time_plan`` can price multi-node comm; v3 files predate the
#: cluster backend and are rejected with the same re-profile pointer.
#: v5: the profiler measures the per-frame overhead of one framed socket
#: hop (``loopback_frame_overhead_s`` — pickle framing plus the scheduler
#: wakeup of a peer that was not already parked in ``recv``, measured in
#: the loopback echo child at exchange cadence). ``cluster_time_plan``
#: charges it on every exchange hop; v4 files priced hops with
#: latency + bytes/bandwidth alone — the ~5–8× loopback underprediction
#: committed in BENCH_8 — and are rejected with the same re-profile
#: pointer.
HOST_PROFILE_VERSION = 5

#: Environment variable naming the profile file a host was calibrated into.
HOST_PROFILE_ENV = "REPRO_HOST_PROFILE"

#: Where ``repro profile`` writes when no output path is given.
DEFAULT_PROFILE_PATH = "~/.cache/repro/host_profile.json"

#: Default decompression throughputs (raw bytes/s) per v2 cache codec —
#: mid-range single-core rates; the profiler replaces them with measured
#: values for every codec available on the host.
_DEFAULT_DECOMPRESS = {
    "none": 8.0e9,
    "zlib": 0.4e9,
    "lzma": 0.08e9,
    "zstd": 1.2e9,
}


@dataclass(frozen=True)
class HostProfile:
    """Measured host-pipeline constants (all throughputs in bytes/second).

    Attributes
    ----------
    version: persisted-format version (:data:`HOST_PROFILE_VERSION`).
    hostname / created / quick: provenance — which host, when, and whether
        the ``--quick`` microbenchmarks produced it. Informational only.
    memcpy_bandwidth: large-block host memcpy rate; bounds staged-copy
        delivery (prefetch staging of resident sources).
    reduce_bandwidth: streamed-batch bytes per second through one serial
        ``reduce_batch_arrays`` lane — the compute term's denominator
        (bytes counted by :func:`repro.engine.autotune.streamed_batch_bytes`).
        Measured with the reference ``numpy`` kernel; per-tier rates live
        in ``kernel_reduce_bandwidth``.
    kernel_reduce_bandwidth: measured ``reduce_bandwidth`` per
        :mod:`repro.tensor.kernelreg` tier name (only tiers available on
        the profiled host appear). :meth:`kernel_rate` resolves a tier,
        falling back to ``reduce_bandwidth`` for unmeasured ones — so a
        pre-kernel consumer and a profile from a host without compiled
        tiers both keep working.
    mmap_read_bandwidth: effective rate of faulting a mapped shard cache's
        batch window in (page-cache-warm sequential reads in practice).
    chunk_read_bandwidth: explicit ``read()`` rate of v2 compressed chunk
        frames.
    decompress_bandwidth: raw (decompressed) bytes per second per codec
        name; missing codecs fall back to ``"none"``.
    serial_dispatch_s / thread_dispatch_s / process_task_s: per-batch
        overhead of dispatching one reduction on each backend — Python call
        overhead, pool submit/result bookkeeping, and the pool task
        round-trip (pickle + pipe + scheduling) respectively.
    pipe_bandwidth: bytes/s through the process pool's result pipe
        (pickled ``(rows, partial)`` blocks).
    thread_efficiency / process_efficiency: fraction of one extra worker's
        throughput actually realized (GIL residue, attachment overhead);
        worker scaling is modeled as ``1 + (workers - 1) * efficiency``.
    prefetch_overhead_s: per-batch cost of the staging-thread handoff
        (queue put/get) when prefetch is on.
    loopback_bandwidth: bytes/s through one loopback socket stream
        (``multiprocessing.connection`` over 127.0.0.1) — the transport the
        cluster backend's ring all-gather and coordinator gather ride on.
        Remote (NIC) links are approximated by the same figure until a
        per-link calibration lands.
    loopback_latency_s: one-way latency of a small message on that socket
        (half the measured ping-pong round trip) — the per-hop constant of
        ``cluster_time_plan``'s ring model.
    loopback_frame_overhead_s: per-frame cost of one *framed* exchange hop
        beyond latency + bytes/bandwidth: pickle length-prefix framing, the
        helper-thread send the ring uses so send/recv overlap, and the
        scheduler wakeup of a peer process that was computing rather than
        parked in ``recv``. Measured at exchange cadence (idle gaps between
        framed round trips, so wakeups are cold like a real iteration);
        charged once per hop by every ``cluster_time_plan`` link term. The
        synthetic default is one hop's share of that residual on a 2-vCPU
        VM: the profiler's framed cycle (a round trip, two hops) left
        430–510 µs over its analytic charge there, and the 2-node
        ``bench`` loopback cell (nnz 2,000, rank 4, ten priced hops per
        iteration) measured a 1.7–2.9 ms exchange (median 2.5 ms over 30
        trials), which the default prices at 3.0 ms. (The earlier 5e-4
        was fitted to BENCH_8's band, recorded before ``comm_stats``
        timed only node 0's forward hop, and priced that cell at 5.8 ms.)
    stream_cache_fraction: measured effective cache fraction for
        ``batch_size="auto"`` (``None``: not measured — resolution falls
        through to the env var / built-in calibration; see
        :func:`repro.engine.autotune.stream_cache_fraction`).
    """

    version: int = HOST_PROFILE_VERSION
    hostname: str = ""
    created: str = ""
    quick: bool = False
    memcpy_bandwidth: float = 8.0e9
    reduce_bandwidth: float = 2.0e9
    mmap_read_bandwidth: float = 4.0e9
    chunk_read_bandwidth: float = 2.0e9
    decompress_bandwidth: dict[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_DECOMPRESS)
    )
    kernel_reduce_bandwidth: dict[str, float] = field(default_factory=dict)
    serial_dispatch_s: float = 5e-6
    thread_dispatch_s: float = 25e-6
    process_task_s: float = 100e-6
    pipe_bandwidth: float = 1.5e9
    thread_efficiency: float = 0.55
    process_efficiency: float = 0.70
    prefetch_overhead_s: float = 15e-6
    loopback_bandwidth: float = 1.2e9
    loopback_latency_s: float = 60e-6
    loopback_frame_overhead_s: float = 2.2e-4
    stream_cache_fraction: float | None = None

    def __post_init__(self) -> None:
        if int(self.version) < 1:
            raise ReproError(
                f"host profile version must be >= 1, got {self.version}"
            )
        for name in (
            "memcpy_bandwidth",
            "reduce_bandwidth",
            "mmap_read_bandwidth",
            "chunk_read_bandwidth",
            "pipe_bandwidth",
            "loopback_bandwidth",
        ):
            if not float(getattr(self, name)) > 0.0:
                raise ReproError(
                    f"host profile {name} must be positive, got "
                    f"{getattr(self, name)!r}"
                )
        for name in ("serial_dispatch_s", "thread_dispatch_s",
                     "process_task_s", "prefetch_overhead_s",
                     "loopback_latency_s", "loopback_frame_overhead_s"):
            if float(getattr(self, name)) < 0.0:
                raise ReproError(
                    f"host profile {name} must be >= 0, got "
                    f"{getattr(self, name)!r}"
                )
        for name in ("thread_efficiency", "process_efficiency"):
            if not 0.0 < float(getattr(self, name)) <= 1.0:
                raise ReproError(
                    f"host profile {name} must be in (0, 1], got "
                    f"{getattr(self, name)!r}"
                )
        for codec, bw in self.decompress_bandwidth.items():
            if not float(bw) > 0.0:
                raise ReproError(
                    f"host profile decompress_bandwidth[{codec!r}] must be "
                    f"positive, got {bw!r}"
                )
        for kname, bw in self.kernel_reduce_bandwidth.items():
            if not float(bw) > 0.0:
                raise ReproError(
                    f"host profile kernel_reduce_bandwidth[{kname!r}] must "
                    f"be positive, got {bw!r}"
                )
        if self.stream_cache_fraction is not None:
            try:
                frac = float(self.stream_cache_fraction)
            except (TypeError, ValueError):
                frac = float("nan")
            if not 0.0 < frac <= 1.0:
                raise ReproError(
                    f"host profile stream_cache_fraction must be in (0, 1] "
                    f"or null, got {self.stream_cache_fraction!r}"
                )

    # ------------------------------------------------------------------
    def decompress_rate(self, codec: str | None) -> float:
        """Raw bytes/s of decompressing ``codec`` frames (``"none"`` fallback)."""
        if codec is None:
            codec = "none"
        table = self.decompress_bandwidth
        return float(table.get(codec, table.get("none", 8.0e9)))

    def kernel_rate(self, kernel: str | None) -> float:
        """Measured reduce bandwidth of one kernel tier.

        Unmeasured tiers (and ``None``) fall back to the kernel-agnostic
        ``reduce_bandwidth`` — the numpy-measured rate — which keeps every
        pre-kernel prediction unchanged and makes unprofiled tiers tie (the
        dispatch preference order then breaks the tie).
        """
        if kernel is None:
            return float(self.reduce_bandwidth)
        return float(
            self.kernel_reduce_bandwidth.get(kernel, self.reduce_bandwidth)
        )

    def replace(self, **kw) -> "HostProfile":
        return replace(self, **kw)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "HostProfile":
        if not isinstance(data, dict):
            raise ReproError(
                f"host profile JSON must be an object, got {type(data).__name__}"
            )
        version = data.get("version")
        if version != HOST_PROFILE_VERSION:
            raise ReproError(
                f"host profile version {version!r} is not supported (this "
                f"build reads version {HOST_PROFILE_VERSION}); re-run "
                f"`repro profile` to regenerate it"
            )
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"host profile has unknown fields {sorted(unknown)}; re-run "
                f"`repro profile` to regenerate it"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ReproError(f"malformed host profile: {exc}") from None

    def save(self, path) -> Path:
        """Write the profile as JSON (creating parent directories)."""
        out = Path(path).expanduser()
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.to_json())
        return out


#: The committed synthetic calibration used when no measured profile is
#: given — a deterministic mid-range workstation, pinned by the golden
#: host_time_plan test.
DEFAULT_HOST_PROFILE = HostProfile(hostname="synthetic-default")


def load_host_profile(path) -> HostProfile:
    """Load a profile JSON written by ``repro profile`` (version-checked)."""
    p = Path(path).expanduser()
    try:
        text = p.read_text()
    except OSError as exc:
        raise ReproError(
            f"cannot read host profile {p}: {exc}; run `repro profile "
            f"--quick {p}` to create one"
        ) from None
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ReproError(f"host profile {p} is not valid JSON: {exc}") from None
    return HostProfile.from_dict(data)


def resolve_host_profile(spec=None) -> HostProfile | None:
    """Resolve a profile spec to a :class:`HostProfile` (or ``None``).

    ``spec`` may be a :class:`HostProfile` (returned as-is), a path to a
    profile JSON, or ``None`` — in which case the ``REPRO_HOST_PROFILE``
    environment variable is consulted (a set-but-bad path raises the named
    :class:`ReproError`, it is never silently ignored). Returns ``None``
    when no profile is configured anywhere; callers then fall back to
    :data:`DEFAULT_HOST_PROFILE` or the pre-profile calibration order.
    """
    if spec is None:
        env = os.environ.get(HOST_PROFILE_ENV)
        if env is not None and env.strip():
            return load_host_profile(env.strip())
        return None
    if isinstance(spec, HostProfile):
        return spec
    if isinstance(spec, (str, Path)):
        if not str(spec).strip():
            raise ReproError("host_profile path must be non-empty")
        return load_host_profile(spec)
    raise ReproError(
        f"host_profile must be a HostProfile, a path to a profile JSON, or "
        f"None, got {type(spec).__name__}"
    )
