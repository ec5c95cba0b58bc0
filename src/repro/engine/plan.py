"""The serializable execution-plan layer: resolve → price → build, once.

Before this module the resolve/price/build sequence — pick concrete
(kernel × backend × workers) for ``"auto"`` axes, resolve the batch
granularity, price the host (or cluster) pipeline and the host residency,
then construct the :class:`repro.engine.StreamingExecutor` stack — was
re-implemented in five places (``AmpedMTTKRP``, the decompose/simulate CLI
paths, the service's admission controller, and the bench trial harness),
so admission control could price a *different* construction than the one
a job executed and bench records could drift from what actually ran.

:class:`ExecutionPlan` makes the execution decision a first-class
artifact:

* :func:`plan_execution` is the single resolver — config + workload in,
  a frozen, JSON-round-trippable plan out, carrying the resolved source
  spec and geometry, the batch plan, the kernel tier, backend topology,
  the priced time/memory dicts, the host-profile hash, and a sha256
  fingerprint over all of it;
* :func:`build_engine_stack` is the **only** place in the repo that
  constructs a ``StreamingExecutor`` (and, for cluster plans, the
  ``ClusterBackend`` instance) — ``AmpedMTTKRP`` calls it, so what was
  priced is what runs, by construction;
* :func:`build_executor` rebuilds a full :class:`repro.core.amped.
  AmpedMTTKRP` from a (possibly deserialized) plan and verifies the
  rebuilt executor re-derives the *same* fingerprint — a plan serialized,
  shipped, reloaded, and built executes bit-identically to the direct
  path or fails with a named error.

The fingerprint hashes the canonical sorted-key JSON of every plan field
(minus the fingerprint itself), so it is stable across
serialize/deserialize round trips and across hosts with the same profile,
caches, and kernel availability — exactly the identity the service job
records and ``BENCH_*.json`` trials store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.engine.costmodel import (
    DEFAULT_HOST_PROFILE,
    cluster_time_plan,
    host_time_plan,
    resolve_auto_execution,
)
from repro.errors import ReproError

__all__ = [
    "EXECUTION_PLAN_VERSION",
    "ExecutionPlan",
    "build_engine_stack",
    "build_executor",
    "cache_plan_inputs",
    "host_profile_hash",
    "normalize_source_config",
    "plan_config",
    "plan_execution",
    "plan_shard_cache",
    "plan_source",
    "plan_tensor",
]

#: Schema version of the serialized plan. Bump whenever a field is added,
#: removed, or changes meaning — a loaded plan from another version is a
#: named error, never a silent reinterpretation.
EXECUTION_PLAN_VERSION = 1

#: The two source kinds a plan can describe. ``"inmem"`` plans carry the
#: geometry but not the elements (rebuild needs a tensor or source);
#: ``"shard_cache"`` plans are self-sufficient — ``shard_cache`` names the
#: on-disk cache :func:`build_executor` reopens.
PLAN_SOURCE_KINDS = ("inmem", "shard_cache")


def host_profile_hash(profile) -> str:
    """Short content hash identifying a :class:`HostProfile` calibration.

    sha256 over the profile's canonical JSON serialization, truncated to
    16 hex chars — the same identity ``BENCH_*.json`` trial records carry,
    so a plan and a bench record priced against the same calibration show
    the same hash.
    """
    return hashlib.sha256(profile.to_json().encode()).hexdigest()[:16]


def _fingerprint(payload: dict) -> str:
    """sha256 fingerprint over the canonical JSON of a plan payload.

    ``json.dumps(sort_keys=True)`` serializes tuples and lists
    identically and round-trips floats exactly (repr round-trip), so the
    fingerprint is the same whether computed from a freshly resolved plan
    or from one reloaded via :meth:`ExecutionPlan.from_json`.
    """
    body = {k: v for k, v in payload.items() if k != "fingerprint"}
    blob = json.dumps(body, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ExecutionPlan:
    """One fully resolved, priced, serializable execution decision.

    Every field is concrete: ``"auto"`` axes were resolved against the
    workload before the plan exists, the batch size is the engine-level
    integer (or ``None`` for eager whole-shard batches), and the
    time/memory dicts are the exact pricing admission control and bench
    prediction-error records consume. Construct via
    :func:`plan_execution`; never by hand.
    """

    # --- identity ---
    version: int
    fingerprint: str
    # --- source spec + geometry ---
    source: str               # one of PLAN_SOURCE_KINDS
    shard_cache: str | None
    shape: tuple
    nnz: int
    rank: int
    n_gpus: int
    shards_per_gpu: int
    policy: str
    # --- resolved execution axes ---
    backend: str              # concrete: serial/thread/process/cluster
    workers: int
    kernel: str               # concrete, availability-resolved tier
    batch_size: int | None    # engine granularity (None = whole shards)
    prefetch: bool
    # --- cluster topology (None/defaults for single-host plans) ---
    nodes: int | None
    cluster_addresses: tuple | None
    allgather: str
    # --- cache/codec inputs to the pricing ---
    out_of_core: bool
    cache_codec: str | None
    cache_chunk_nnz: int | None
    codec_ratio: float | None
    # --- pricing ---
    host_profile_hash: str
    time_plan: dict           # host_time_plan / cluster_time_plan schema
    memory_plan: dict         # host_memory_plan schema

    def __post_init__(self):
        if self.source not in PLAN_SOURCE_KINDS:
            raise ReproError(
                f"plan source kind must be one of {PLAN_SOURCE_KINDS}, "
                f"got {self.source!r}"
            )
        if self.version != EXECUTION_PLAN_VERSION:
            raise ReproError(
                f"execution plan version {self.version} is not supported "
                f"(this build reads version {EXECUTION_PLAN_VERSION}); "
                f"re-plan with plan_execution"
            )

    # ---- serialization ------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON-safe dict form (tuples become lists)."""
        d = asdict(self)
        d["shape"] = list(self.shape)
        if self.cluster_addresses is not None:
            d["cluster_addresses"] = list(self.cluster_addresses)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "ExecutionPlan":
        """Rebuild a plan from its dict form, verifying the fingerprint.

        The embedded fingerprint is recomputed from the payload — a plan
        that was hand-edited (or truncated in transit) raises the named
        error instead of silently pricing/building something else.
        """
        if not isinstance(d, dict):
            raise ReproError(
                f"execution plan must be a JSON object, got "
                f"{type(d).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ReproError(
                f"unknown execution plan fields {sorted(unknown)}; a plan "
                f"from a newer schema must be re-planned, not reinterpreted"
            )
        missing = known - set(d)
        if missing:
            raise ReproError(
                f"execution plan is missing fields {sorted(missing)}"
            )
        expect = _fingerprint(d)
        if d["fingerprint"] != expect:
            raise ReproError(
                f"execution plan fingerprint mismatch: recorded "
                f"{d['fingerprint']!r}, payload hashes to {expect!r} — "
                f"the plan was edited or corrupted after it was resolved"
            )
        kw = dict(d)
        kw["shape"] = tuple(d["shape"])
        if d.get("cluster_addresses") is not None:
            kw["cluster_addresses"] = tuple(d["cluster_addresses"])
        return cls(**kw)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"execution plan is not valid JSON: {exc}") from None
        return cls.from_dict(payload)


# ----------------------------------------------------------------------
# Config normalization shared by every source-backed entry point
# ----------------------------------------------------------------------
def normalize_source_config(config, source):
    """The config as an open shard source means it.

    An out-of-core source forces the ``out_of_core``/``shard_cache``
    spelling (so batch autotuning and host-residency accounting see the
    streaming residency), and a shard-cache source records its manifest
    codec/chunk size, so the staging pricing charges a mapped read for a
    ``"none"`` cache and a read plus decompression for any other. This
    is the one normalization every path shares: :func:`plan_source` calls
    it, so a plan made without building an executor fingerprints
    identically to the executor's own.
    """
    if source.is_out_of_core and not config.out_of_core:
        config = config.replace(
            out_of_core=True,
            shard_cache=str(getattr(source, "path", "<shard source>")),
        )
    codec = getattr(source, "codec", None)
    if codec is not None and config.cache_codec is None:
        config = config.replace(
            cache_codec=codec,
            cache_chunk_nnz=getattr(source, "chunk_nnz", None),
        )
    return config


def cache_plan_inputs(config, cache):
    """``(annotated config, measured codec_ratio)`` for an on-disk cache.

    Marks the config out-of-core against ``cache``, records the manifest's
    codec/chunk size and returns its measured compressed/raw byte ratio so
    the staging-read term prices real on-disk bytes. This annotates
    *without building shard tables*, for model-scale pricing paths
    (``repro simulate``) that never touch elements. A version-1 ``.npz``
    cache is refused by name.
    """
    from repro.tensor.io_v2 import ChunkedCacheReader, shard_cache_path

    cache = shard_cache_path(cache)
    reader = ChunkedCacheReader(cache)
    config = config.replace(out_of_core=True, shard_cache=str(cache))
    try:
        config = config.replace(
            cache_codec=reader.codec_name, cache_chunk_nnz=reader.chunk_nnz
        )
        return config, reader.codec_ratio
    finally:
        reader.close()


# ----------------------------------------------------------------------
# The single resolver
# ----------------------------------------------------------------------
def plan_execution(
    config,
    workload,
    *,
    cost=None,
    profile=None,
    codec_ratio=None,
) -> ExecutionPlan:
    """Resolve and price one execution: the only way to make a plan.

    ``config`` may still carry ``"auto"`` axes — they are resolved here
    against ``workload`` via :func:`resolve_auto_execution` (an axis the
    config pins concrete is held fixed), exactly as ``AmpedMTTKRP`` used
    to do inline. ``profile`` defaults to the config's pinned host
    profile, then the committed synthetic default; ``codec_ratio`` is the
    measured v2-cache compressed/raw ratio (``None`` prices the analytic
    per-codec default). The returned plan's ``time_plan`` is the
    :func:`host_time_plan` dict (or :func:`cluster_time_plan` for cluster
    plans) and ``memory_plan`` is the
    :func:`repro.core.simulate.host_memory_plan` dict — the same pricing
    service admission enforces and bench prediction errors are scored
    against.
    """
    # Lazy: repro.core sits above the engine, importing it at module
    # scope here would cycle through repro.core.amped.
    from repro.core.simulate import host_memory_plan
    from repro.simgpu.kernel import KernelCostModel

    if cost is None:
        cost = KernelCostModel()
    if profile is None:
        profile = config.resolved_host_profile()
    if profile is None:
        profile = DEFAULT_HOST_PROFILE

    if config.backend == "auto" or config.kernel == "auto":
        auto_kernel, auto_backend, auto_workers = resolve_auto_execution(
            workload, config, cost, config.resolved_host_profile(),
            codec_ratio=codec_ratio,
        )
        config = config.replace(
            kernel=auto_kernel, backend=auto_backend, workers=auto_workers
        )

    backend_name, workers = config.resolved_backend()
    kernel = config.resolved_kernel()
    batch_size = config.resolved_batch_size(cost, workload.nmodes)

    nodes = None
    if backend_name == "cluster":
        nodes = int(config.nodes or 2)
        time_plan = cluster_time_plan(
            workload, config, cost, profile,
            nodes=nodes,
            sub_backend=("thread" if workers > 1 else "serial", workers),
            kernel=kernel,
            codec_ratio=codec_ratio,
        )
    else:
        time_plan = host_time_plan(
            workload, config, cost, profile,
            backend=(backend_name, workers),
            kernel=kernel,
            codec_ratio=codec_ratio,
        )
    memory_plan = host_memory_plan(workload, config, cost)

    payload = {
        "version": EXECUTION_PLAN_VERSION,
        "source": "shard_cache" if config.out_of_core else "inmem",
        "shard_cache": config.shard_cache,
        "shape": tuple(int(s) for s in workload.shape),
        "nnz": int(workload.nnz),
        "rank": int(config.rank),
        "n_gpus": int(config.n_gpus),
        "shards_per_gpu": int(config.shards_per_gpu),
        "policy": config.policy,
        "backend": backend_name,
        "workers": int(workers),
        "kernel": kernel,
        "batch_size": None if batch_size is None else int(batch_size),
        "prefetch": bool(config.prefetch),
        "nodes": nodes,
        "cluster_addresses": (
            None if config.cluster_addresses is None
            else tuple(config.cluster_addresses)
        ),
        "allgather": config.allgather,
        "out_of_core": bool(config.out_of_core),
        "cache_codec": config.cache_codec,
        "cache_chunk_nnz": (
            None if config.cache_chunk_nnz is None
            else int(config.cache_chunk_nnz)
        ),
        "codec_ratio": None if codec_ratio is None else float(codec_ratio),
        "host_profile_hash": host_profile_hash(profile),
        "time_plan": dict(time_plan),
        "memory_plan": {k: int(v) for k, v in memory_plan.items()},
    }
    payload["fingerprint"] = _fingerprint(payload)
    return ExecutionPlan(**payload)


def plan_source(source, config, *, cost=None, profile=None, name="plan"):
    """``(config, workload, plan)`` for an execution over an open source.

    The one planning path behind :class:`repro.core.amped.AmpedMTTKRP`,
    :func:`plan_tensor` and :func:`plan_shard_cache`: the config is
    normalized to the source (:func:`normalize_source_config`), the
    workload comes off the source's key columns and shard metadata
    (:meth:`repro.core.workload.TensorWorkload.from_source`), and
    :func:`plan_execution` resolves and prices it at the source's measured
    codec ratio (``None`` for a resident source). The returned config is
    the normalized one; its ``"auto"`` axes are still unresolved.
    """
    from repro.core.workload import TensorWorkload
    from repro.simgpu.kernel import KernelCostModel

    if source.n_gpus != config.n_gpus:
        raise ReproError(
            f"source was sharded for {source.n_gpus} GPUs, "
            f"config requests {config.n_gpus}"
        )
    cost = cost or KernelCostModel()
    config = normalize_source_config(config, source)
    workload = TensorWorkload.from_source(
        source, cost, rank=config.rank, name=name
    )
    plan = plan_execution(
        config, workload, cost=cost, profile=profile,
        codec_ratio=getattr(source, "codec_ratio", None),
    )
    return config, workload, plan


def plan_tensor(tensor, config, *, cost=None, profile=None, name="plan"):
    """Plan a resident (in-memory) execution without building an executor.

    Partitions ``tensor`` into the :class:`repro.engine.InMemorySource`
    :class:`repro.core.amped.AmpedMTTKRP` would build and plans it through
    :func:`plan_source`, so the fingerprint matches that executor's.
    """
    from repro.engine.source import InMemorySource

    source = InMemorySource.from_tensor(
        tensor, config.n_gpus,
        shards_per_gpu=config.shards_per_gpu, policy=config.policy,
    )
    return plan_source(
        source, config, cost=cost, profile=profile, name=name
    )[2]


def plan_shard_cache(cache, config, *, cost=None, profile=None, name="plan"):
    """Plan an out-of-core execution over ``cache`` without executing.

    Opens the cache for metadata only (key columns + manifest; no engine,
    backend pool, or cluster node is constructed) and plans it through
    :func:`plan_source`, so ``repro plan`` prints the same fingerprint
    ``repro decompose`` later reports.
    """
    from repro.engine.source import open_shard_source

    with open_shard_source(
        cache,
        n_gpus=config.n_gpus,
        shards_per_gpu=config.shards_per_gpu,
        policy=config.policy,
    ) as source:
        return plan_source(
            source, config, cost=cost, profile=profile, name=name
        )[2]


# ----------------------------------------------------------------------
# Building from a plan
# ----------------------------------------------------------------------
def build_engine_stack(plan: ExecutionPlan, source):
    """``(StreamingExecutor, ClusterBackend | None)`` for a resolved plan.

    The single construction chokepoint: every executor stack in the repo
    is built here, from a plan, so the priced choices (backend, workers,
    kernel tier, batch granularity, prefetch, node topology) are by
    construction the ones that run. The cluster backend instance — when
    the plan calls for one — is returned to the caller, who owns its node
    processes (the executor treats backend instances as caller-owned).
    """
    from repro.engine.executor import StreamingExecutor

    backend: str | object = plan.backend
    cluster = None
    if plan.backend == "cluster":
        from repro.engine.cluster import ClusterBackend

        cluster = ClusterBackend(
            nodes=plan.nodes or 2,
            addresses=plan.cluster_addresses,
            workers=plan.workers,
            allgather=plan.allgather,
        )
        backend = cluster
    engine = StreamingExecutor(
        source,
        batch_size=plan.batch_size,
        backend=backend,
        workers=plan.workers,
        prefetch=plan.prefetch,
        kernel=plan.kernel,
    )
    return engine, cluster


def plan_config(plan: ExecutionPlan, *, host_profile=None):
    """The concrete :class:`AmpedConfig` a plan pins.

    Every ``"auto"`` axis was resolved before the plan existed, so the
    reconstructed config re-resolves to itself — which is what makes
    :func:`build_executor`'s fingerprint verification an identity check
    rather than a fresh decision. ``host_profile`` re-attaches the
    calibration the plan was priced against (the plan stores only its
    hash).
    """
    from repro.core.config import AmpedConfig

    return AmpedConfig(
        n_gpus=plan.n_gpus,
        rank=plan.rank,
        shards_per_gpu=plan.shards_per_gpu,
        policy=plan.policy,
        allgather=plan.allgather,
        batch_size=plan.batch_size,
        backend=plan.backend,
        workers=plan.workers,
        kernel=plan.kernel,
        prefetch=plan.prefetch,
        out_of_core=plan.out_of_core,
        shard_cache=plan.shard_cache,
        cache_codec=plan.cache_codec,
        cache_chunk_nnz=plan.cache_chunk_nnz,
        host_profile=host_profile,
        nodes=plan.nodes,
        cluster_addresses=plan.cluster_addresses,
    )


def build_executor(
    plan: ExecutionPlan,
    *,
    tensor=None,
    source=None,
    host_profile=None,
    cost=None,
    platform=None,
    name="plan",
    verify=True,
):
    """Rebuild a full ``AmpedMTTKRP`` from a (possibly deserialized) plan.

    ``shard_cache`` plans are self-sufficient — the cache is reopened from
    ``plan.shard_cache`` (or served from an already-open ``source``);
    ``inmem`` plans carry geometry but no elements, so a ``tensor`` or
    ``source`` must be supplied. The rebuilt executor's workload geometry
    is checked against the plan, and with ``verify=True`` (the default)
    its freshly re-derived plan must fingerprint identically — a host
    whose profile, kernel availability, or cache contents differ from the
    planning host fails loudly instead of silently executing (and having
    admission-priced) something else.
    """
    from repro.core.amped import AmpedMTTKRP

    config = plan_config(plan, host_profile=host_profile)
    kw = {"name": name}
    if cost is not None:
        kw["cost"] = cost
    if platform is not None:
        kw["platform"] = platform
    if source is not None:
        ex = AmpedMTTKRP.from_source(source, config, **kw)
    elif plan.source == "shard_cache":
        if plan.shard_cache is None:
            raise ReproError(
                "shard_cache plan carries no cache path; re-plan it"
            )
        ex = AmpedMTTKRP.from_shard_cache(plan.shard_cache, config, **kw)
    elif tensor is not None:
        ex = AmpedMTTKRP(tensor, config, **kw)
    else:
        raise ReproError(
            "an in-memory plan carries geometry but no elements: pass "
            "tensor= (or an open source=) to build_executor"
        )
    try:
        got = (tuple(int(s) for s in ex.workload.shape), int(ex.workload.nnz))
        want = (tuple(plan.shape), int(plan.nnz))
        if got != want:
            raise ReproError(
                f"plan geometry mismatch: plan describes shape="
                f"{want[0]} nnz={want[1]}, the rebuilt source has shape="
                f"{got[0]} nnz={got[1]} — the data changed since planning"
            )
        if verify and ex.plan.fingerprint != plan.fingerprint:
            raise ReproError(
                f"rebuilt execution plan fingerprints {ex.plan.fingerprint!r}"
                f", expected {plan.fingerprint!r} — the host profile, "
                f"kernel availability, or cache differs from the planning "
                f"host (pass the original host_profile, or re-plan here)"
            )
    except ReproError:
        ex.close()
        raise
    return ex
