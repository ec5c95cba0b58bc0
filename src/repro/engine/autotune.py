"""Cache-model batch-size autotuning for the streaming engine.

PR 1 left ``batch_size`` a manual knob with tuning guidance in docstrings;
this module turns the guidance into the default. ``batch_size="auto"``
derives the batch from the device cache model
(:attr:`repro.simgpu.kernel.KernelCostModel.effective_cache_bytes`) and the
factor-row footprint:

* the streamed block of one batch stages, per element, the ``(rank,)``
  float64 contribution row, one same-sized multiply temporary, and the
  int64/float64 index/value slice — ``2*rank*8 + nmodes*8 + 8`` bytes;
* the rest of the cache serves the hot input-factor rows the batch gathers
  (``(nmodes-1)`` rows of ``rank * 8`` bytes per element, deduplicated
  heavily by skew in practice) — and it is *shared*: every concurrent
  execution lane (SM on the device, core/worker on the host) streams its
  own block, so one lane's slab must be a small fraction of the whole.

So ``auto`` picks the largest batch whose streamed block fits a
:data:`STREAM_CACHE_FRACTION` slice of the effective cache — with the
default model a ~3 MB slab, i.e. a few thousand elements at rank 32. The
fraction is calibrated against the smoke sweep in
``benchmarks/bench_kernels.py --smoke``: throughput is flat from ~2k to
~16k elements and falls off past ~64k when the streamed block outgrows the
cache slice, so the slice targets the middle of the plateau. A measured
host profile (``repro profile`` sweeps the plateau on the host itself)
replaces that default; an integer ``batch_size`` is the manual override.
Resolution is **source-aware**: for fully resident sources
the fastest granularity is the eager whole-shard batch (PR 1's measured
result — the tensor occupies host RAM either way, and one segmented
reduction per shard minimizes dispatch overhead), so ``auto`` resolves to
``None`` there; for out-of-core sources the batch *is* the resident
footprint, so ``auto`` resolves to the cache-derived size.
"""

from __future__ import annotations

from repro.errors import ReproError

__all__ = [
    "auto_batch_size",
    "resolve_batch_size",
    "stream_cache_fraction",
    "streamed_batch_bytes",
    "validate_batch_size",
]

#: below this, per-batch NumPy dispatch overhead dominates (PR 1 smoke data)
MIN_AUTO_BATCH = 4096
#: above this, batches stop fitting any realistic cache level anyway
MAX_AUTO_BATCH = 1 << 22
#: default fraction of the shared effective cache granted to one lane's
#: streamed block; the rest serves factor-row gathers and the other
#: execution lanes (calibrated on the --smoke sweep, see module docstring).
#: A measured host profile replaces it (:func:`stream_cache_fraction`).
STREAM_CACHE_FRACTION = 1 / 32


def stream_cache_fraction(profile=None) -> float:
    """The cache fraction one streamed lane may occupy, in (0, 1].

    A measured host profile's ``stream_cache_fraction`` (``profile`` is a
    :class:`repro.engine.costmodel.HostProfile`, the product of
    ``repro profile``, which validates the value) when it sets one, else
    the built-in :data:`STREAM_CACHE_FRACTION`. To tune the batch by hand,
    pass an integer ``batch_size`` instead.
    """
    measured = getattr(profile, "stream_cache_fraction", None)
    return STREAM_CACHE_FRACTION if measured is None else float(measured)


def streamed_batch_bytes(batch_size: int, rank: int, nmodes: int) -> int:
    """Host bytes staged by one ``batch_size``-element streamed batch.

    Counts the float64 contribution block, its same-shaped multiply
    temporary, and the int64 index / float64 value slice — the arrays
    :func:`repro.engine.executor.reduce_batch` actually materializes.
    """
    per_element = 2 * rank * 8 + nmodes * 8 + 8
    return int(batch_size) * per_element


def auto_batch_size(cost, rank: int, nmodes: int, *, profile=None) -> int:
    """The cache-model batch size for an out-of-core streamed reduction.

    ``cost`` is anything with an ``effective_cache_bytes`` attribute
    (normally a :class:`repro.simgpu.kernel.KernelCostModel`). The result is
    the largest batch whose streamed block fits a
    :func:`stream_cache_fraction` slice of the effective cache (a measured
    host ``profile``'s fraction, else the built-in default), clamped to
    ``[MIN_AUTO_BATCH, MAX_AUTO_BATCH]`` (below the floor, dispatch
    overhead outweighs any locality win).
    """
    if rank <= 0:
        raise ReproError(f"rank must be positive, got {rank}")
    if nmodes <= 0:
        raise ReproError(f"nmodes must be positive, got {nmodes}")
    cache = int(getattr(cost, "effective_cache_bytes"))
    if cache <= 0:
        raise ReproError(f"effective_cache_bytes must be positive, got {cache}")
    budget = int(cache * stream_cache_fraction(profile))
    per_element = streamed_batch_bytes(1, rank, nmodes)
    batch = budget // per_element
    return int(min(MAX_AUTO_BATCH, max(MIN_AUTO_BATCH, batch)))


def validate_batch_size(batch_size) -> None:
    """Reject anything but a positive int, ``None``, or ``"auto"``.

    The single source of truth for the config value's domain — shared by
    :class:`repro.core.config.AmpedConfig` validation and
    :func:`resolve_batch_size` so the two cannot drift.
    """
    if isinstance(batch_size, str):
        if batch_size != "auto":
            raise ReproError(
                f"batch_size must be a positive int, None (whole-shard "
                f"batches), or 'auto' (derive from the device cache model); "
                f"got {batch_size!r}"
            )
    elif batch_size is not None and int(batch_size) < 1:
        raise ReproError(
            f"batch_size must be >= 1 (or None for whole-shard batches), "
            f"got {batch_size}"
        )


def resolve_batch_size(
    batch_size,
    *,
    cost,
    rank: int,
    nmodes: int,
    out_of_core: bool,
    profile=None,
) -> int | None:
    """Resolve a ``batch_size`` config value to the engine's ``int | None``.

    ``"auto"`` resolves to :func:`auto_batch_size` when the element data is
    out of core and to ``None`` (eager whole-shard batches) when it is fully
    resident — see the module docstring for why. Integers and ``None`` pass
    through validated. ``profile`` is a measured
    :class:`repro.engine.costmodel.HostProfile` whose cache fraction, when
    set, replaces the built-in one.
    """
    validate_batch_size(batch_size)
    if batch_size == "auto":
        if not out_of_core:
            return None
        return auto_batch_size(cost, rank, nmodes, profile=profile)
    return None if batch_size is None else int(batch_size)
