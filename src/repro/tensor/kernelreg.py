"""Runtime-dispatched MTTKRP kernel registry: numpy reference + compiled tiers.

The streaming engine's hot path is one *batch reduction*: gather the input
factor rows of a sorted element batch, Hadamard-scale them by the values,
and segment-reduce along the output-mode key (the split
:func:`repro.tensor.kernels.mttkrp_sorted_segments` pipeline). The pure
NumPy implementation dispatches several array passes per batch; this module
adds *fused* single-pass implementations behind one registry so callers
pick a tier by name — or ask for the best available one — without caring
how (or whether) it was compiled:

* ``"numpy"`` — the reference tier: exactly the
  :mod:`repro.tensor.kernels` pipeline (``ec_contributions`` →
  ``segment_starts`` → ``np.add.reduceat``). Always available, and the
  **bit-exactness baseline**: the golden regression data pins its bits.
* ``"numba"`` — a ``numba.njit(parallel=True)`` kernel fusing
  gather → Hadamard → segment-reduce into one pass, parallelized over
  segments (each segment is owned by exactly one thread, so results are
  deterministic and independent of the thread count). Available when the
  optional ``numba`` package imports *and* the JIT compiles — any failure
  downgrades to the numpy tier with the reason recorded.
* ``"cc"`` — the same fused loops as portable C, compiled **at runtime**
  with the host's C compiler (``cc``/``gcc``) into a content-addressed
  shared object under ``~/.cache/repro/cc`` and loaded through
  :mod:`ctypes`. Available when a compiler is on ``PATH`` and the probe
  reduction matches the reference; no build-time dependency is added.

Tolerance policy
----------------
Fused tiers accumulate each segment *sequentially* (and each scatter
element in input order). ``np.add.reduceat`` does **not**: for 2-D
operands its accumulation order is an internal association tree (pairwise/
SIMD-dependent), measured to differ from sequential accumulation at the
last ulp on ~95% of multi-element segments. Replicating that tree portably
is not feasible, so compiled tiers are *documented tolerance tiers*:
deterministic (same bits on every run, worker count, and batch split) but
not bit-identical to numpy — ``KernelSpec.bit_identical`` records which
contract a tier carries, and the equivalence/golden matrices assert exact
equality for bit-identical tiers and :data:`FUSED_RTOL` agreement
otherwise (see ``docs/kernels.md``).

Dispatch rules
--------------
``resolve_kernel_name("auto")`` returns the first *available* tier of
:data:`KERNEL_PREFERENCE` (``numba`` > ``cc`` > ``numpy``); an explicitly
requested tier that is unavailable **falls back to numpy** (graceful
degradation — the reason is queryable via :func:`kernel_availability`).
``AmpedConfig(kernel="auto")`` resolves through the host cost model
instead (measured per-kernel rates; see
:func:`repro.engine.costmodel.resolve_auto_execution`). Setting the
``REPRO_KERNEL_DISABLE`` environment variable to a comma-separated tier
list (e.g. ``"numba,cc"``) forces tiers unavailable — how the test matrix
exercises the fallback path on hosts where the real dependency exists.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.errors import TensorFormatError
from repro.tensor.coo import INDEX_DTYPES
from repro.tensor.kernels import (
    ec_contributions,
    scatter_rows_atomic,
    segment_starts,
)

__all__ = [
    "AUTO_KERNEL",
    "KERNEL_NAMES",
    "KERNEL_PREFERENCE",
    "KERNEL_DISABLE_ENV",
    "FUSED_RTOL",
    "KernelSpec",
    "validate_kernel_name",
    "kernel_availability",
    "available_kernels",
    "resolve_kernel_name",
    "get_kernel",
    "refresh_kernel_registry",
]

#: The registry: every tier a caller may request by name.
KERNEL_NAMES = ("numpy", "numba", "cc")

#: The config/CLI spelling of "pick the best available tier".
AUTO_KERNEL = "auto"

#: ``"auto"`` resolution order (first available wins; numpy always is).
KERNEL_PREFERENCE = ("numba", "cc", "numpy")

#: Comma-separated tier names forced unavailable (fallback-path testing).
KERNEL_DISABLE_ENV = "REPRO_KERNEL_DISABLE"

#: Where the ``cc`` tier caches its compiled shared objects (overridable
#: via ``REPRO_CC_CACHE_DIR``); objects are content-addressed by source
#: hash, so stale builds can never be picked up.
CC_CACHE_ENV = "REPRO_CC_CACHE_DIR"
DEFAULT_CC_CACHE_DIR = "~/.cache/repro/cc"

#: Relative tolerance of the fused (non-bit-identical) tiers against the
#: numpy reference — the documented tolerance tier. Fused ordering differs
#: from ``np.add.reduceat`` only in summation association, so the measured
#: deviation is a few ulps (~1e-16 relative); 1e-12 leaves margin while
#: still catching any real numerical defect.
FUSED_RTOL = 1e-12
FUSED_ATOL = 1e-14

#: The cc tier compiles its kernels once per index dtype a mode copy may
#: hold (:data:`repro.tensor.coo.INDEX_DTYPES`), so a narrow batch is
#: reduced without an upcast. Maps each dtype to its C symbol suffix
#: (``i8``, ``u4``, ``u2``: kind and byte width).
_CC_INDEX_SUFFIX = {dtype: dtype.str[1:] for dtype in INDEX_DTYPES}
_INT64_ONLY = (np.dtype(np.int64),)

#: The fused C kernel hoists per-element factor-row base pointers into a
#: fixed-size stack array; tensors beyond this mode count take the numpy
#: tier (no real dataset comes close).
_CC_MAX_MODES = 16


@dataclass(frozen=True)
class KernelSpec:
    """One registered kernel tier.

    ``reduce_batch(indices, values, factors, mode) -> (rows, partial)``
    is the engine hot path — the fused gather→Hadamard→segment-reduce of a
    mode-sorted batch (``rows`` are the distinct output indices, ``partial``
    their summed contribution rows). ``scatter_batch(out, indices, values,
    factors, mode) -> out`` is the fused gather→Hadamard→scatter-add used
    by the elementwise (unsorted-batch) executors. ``bit_identical`` is
    True when the tier reproduces the numpy reference bit-for-bit (the
    golden contract); False marks a documented tolerance tier
    (:data:`FUSED_RTOL`).
    """

    name: str
    bit_identical: bool
    reduce_batch: Callable
    scatter_batch: Callable


# ----------------------------------------------------------------------
# Shared validation for the fused tiers
# ----------------------------------------------------------------------
def _check_fused_shapes(
    indices: np.ndarray,
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
) -> None:
    """The O(nmodes) named-error preconditions of every fused call: the
    same shape/mode/rank checks ``ec_contributions`` performs. The O(nnz)
    index-bounds sweep is *not* here — each compiled tier runs it as an
    in-kernel validation pass (one cache-friendly scan at native speed,
    before any factor dereference) and falls back to
    :func:`_check_fused_bounds` only to name the offending column."""
    nmodes = len(factors)
    if nmodes == 0:
        raise TensorFormatError("factors must be a non-empty list")
    if indices.ndim != 2 or indices.shape[1] != nmodes:
        raise TensorFormatError(
            f"indices shape {indices.shape} inconsistent with {nmodes} factors"
        )
    if not 0 <= mode < nmodes:
        raise TensorFormatError(f"mode {mode} out of range")
    rank = factors[0].shape[1]
    for w, f in enumerate(factors):
        if f.ndim != 2 or f.shape[1] != rank:
            raise TensorFormatError(
                f"factor {w} has shape {f.shape}; expected rank-{rank} "
                f"matrix matching factor 0"
            )


def _check_fused_bounds(
    indices: np.ndarray, factors: Sequence[np.ndarray]
) -> None:
    """The named-error index-bounds sweep — a compiled kernel dereferences
    ``factors[w][indices[i, w]]`` directly, so an out-of-range index that
    the numpy tier would turn into an ``IndexError`` must be rejected
    instead of corrupting (or faulting on) arbitrary memory. Cold path
    only: the hot path detects violations in-kernel and calls this to
    produce the message."""
    if indices.shape[0] == 0:
        return
    lo = indices.min(axis=0)
    hi = indices.max(axis=0)
    for w, f in enumerate(factors):
        if lo[w] < 0 or hi[w] >= f.shape[0]:
            raise TensorFormatError(
                f"mode-{w} indices span [{lo[w]}, {hi[w]}] outside factor "
                f"extent {f.shape[0]}"
            )


def _check_fused_operands(
    indices: np.ndarray,
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
) -> None:
    """Full precondition sweep (shapes + bounds) for callers outside the
    compiled hot path."""
    _check_fused_shapes(indices, values, factors, mode)
    _check_fused_bounds(indices, factors)


def _raise_fused_bounds_error(
    idx: np.ndarray,
    facs: Sequence[np.ndarray],
    mode: int,
    out_rows: int | None = None,
) -> None:
    """Turn an in-kernel bounds flag into the named error (cold path)."""
    _check_fused_bounds(idx, facs)
    if out_rows is not None and idx.shape[0]:
        worst = int(idx[:, mode].max())
        if worst >= out_rows:
            raise TensorFormatError(
                f"row index {worst} out of range for out with "
                f"{out_rows} rows"
            )
    raise TensorFormatError(  # pragma: no cover - kernel/sweep agree
        "fused kernel bounds check failed"
    )


def _fused_operands(indices, values, factors, index_dtypes=_INT64_ONLY):
    """Contiguous, dtype-normalized operand views for a compiled kernel.

    Indices keep their dtype when the tier has a kernel for it
    (``index_dtypes``) and are widened to int64 otherwise. The numba tier
    takes the int64 default: its kernels would specialize per index type
    on first call, but no narrow specialization is probed, so narrow
    batches are upcast for it (one copy per batch).
    """
    idx = np.asarray(indices)
    if idx.dtype not in index_dtypes:
        idx = idx.astype(np.int64)
    idx = np.ascontiguousarray(idx)
    val = np.ascontiguousarray(values, dtype=np.float64)
    facs = [np.ascontiguousarray(f, dtype=np.float64) for f in factors]
    return idx, val, facs


# ----------------------------------------------------------------------
# numpy tier: the canonical reference pipeline
# ----------------------------------------------------------------------
def _numpy_reduce_batch(
    indices: np.ndarray,
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Segmented reduction of one mode-sorted batch (the reference bits)."""
    keys = np.asarray(indices[:, mode])
    contrib = ec_contributions(indices, values, factors, mode)
    starts = segment_starts(keys)
    return keys[starts], np.add.reduceat(contrib, starts, axis=0)


def _numpy_scatter_batch(
    out: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
) -> np.ndarray:
    """Gather→Hadamard→scatter-add of one (not necessarily sorted) batch."""
    contrib = ec_contributions(indices, values, factors, mode)
    return scatter_rows_atomic(out, np.asarray(indices[:, mode]), contrib)


_NUMPY_SPEC = KernelSpec(
    name="numpy",
    bit_identical=True,
    reduce_batch=_numpy_reduce_batch,
    scatter_batch=_numpy_scatter_batch,
)


# ----------------------------------------------------------------------
# numba tier: parallel-njit fused kernels
# ----------------------------------------------------------------------
def _build_numba_spec() -> KernelSpec:
    """Compile (and probe) the fused numba kernels; raises on any failure."""
    import numba

    # In-kernel bounds scan (mirrors the cc tier's check_bounds): one
    # native-speed pass before any factor dereference, keeping the fused
    # compute loops branch-free and the Python sweep off the hot path.
    @numba.njit(fastmath=False, cache=False)
    def _bounds_violation(idx, bound):
        n = idx.shape[0]
        nmodes = idx.shape[1]
        for i in range(n):
            for w in range(nmodes):
                r = idx[i, w]
                if r < 0 or r >= bound[w]:
                    return i * nmodes + w
        return -1

    # fastmath stays OFF: the tolerance tier promises the *same association
    # order* on every run — fastmath would let LLVM re-associate per build.
    @numba.njit(parallel=True, fastmath=False, cache=False)
    def _fused_reduce(idx, val, facs, mode, starts_ext, partial):
        nseg = partial.shape[0]
        rank = partial.shape[1]
        nmodes = idx.shape[1]
        for s in numba.prange(nseg):
            lo = starts_ext[s]
            hi = starts_ext[s + 1]
            for r in range(rank):
                partial[s, r] = 0.0
            for i in range(lo, hi):
                v = val[i]
                for r in range(rank):
                    c = v
                    for w in range(nmodes):
                        if w != mode:
                            c *= facs[w][idx[i, w], r]
                    partial[s, r] += c

    @numba.njit(fastmath=False, cache=False)
    def _fused_scatter(idx, val, facs, mode, out):
        n = idx.shape[0]
        rank = out.shape[1]
        nmodes = idx.shape[1]
        # scatter in input order: deterministic sequential adds
        for i in range(n):
            row = idx[i, mode]
            v = val[i]
            for r in range(rank):
                c = v
                for w in range(nmodes):
                    if w != mode:
                        c *= facs[w][idx[i, w], r]
                out[row, r] += c

    def _checked_bounds(idx, facs, mode, out_rows=None):
        bound = np.array([f.shape[0] for f in facs], dtype=np.int64)
        if out_rows is not None:
            bound[mode] = min(bound[mode], out_rows)
        if _bounds_violation(idx, bound) >= 0:
            _raise_fused_bounds_error(idx, facs, mode, out_rows)

    def reduce_batch(indices, values, factors, mode):
        idx, val, facs = _fused_operands(indices, values, factors)
        _check_fused_shapes(idx, val, facs, mode)
        _checked_bounds(idx, facs, mode)
        keys = idx[:, mode]
        starts = segment_starts(keys)
        starts_ext = np.empty(starts.size + 1, dtype=np.int64)
        starts_ext[:-1] = starts
        starts_ext[-1] = idx.shape[0]
        partial = np.empty((starts.size, facs[0].shape[1]), dtype=np.float64)
        _fused_reduce(idx, val, tuple(facs), mode, starts_ext, partial)
        return keys[starts], partial

    def scatter_batch(out, indices, values, factors, mode):
        idx, val, facs = _fused_operands(indices, values, factors)
        _check_fused_shapes(idx, val, facs, mode)
        if out.ndim != 2 or out.shape[1] != facs[0].shape[1]:
            raise TensorFormatError(
                f"out shape {out.shape} inconsistent with rank "
                f"{facs[0].shape[1]}"
            )
        if not (out.flags.c_contiguous and out.dtype == np.float64):
            raise TensorFormatError(
                "fused scatter needs a C-contiguous float64 out array"
            )
        _checked_bounds(idx, facs, mode, out_rows=out.shape[0])
        _fused_scatter(idx, val, tuple(facs), mode, out)
        return out

    spec = KernelSpec(
        name="numba",
        bit_identical=False,
        reduce_batch=reduce_batch,
        scatter_batch=scatter_batch,
    )
    _probe_spec(spec)
    return spec


# ----------------------------------------------------------------------
# cc tier: runtime-compiled C via ctypes
# ----------------------------------------------------------------------
_C_SOURCE = r"""
#include <stdint.h>

#define MAX_MODES %d

/* The three kernels, written once over an index type T and instantiated
 * below for every index dtype a mode copy may hold, so a narrow batch is
 * reduced as it is stored (the instantiation lines are generated from
 * INDEX_DTYPES after this source). Each index is widened to int64 as it is read;
 * the floating-point operations are the same for every T.
 *
 * check_bounds: one cache-friendly scan of every index column against its
 * bound; returns -1 when clean, else the flat (i * nmodes + w) of the
 * first violation. Runs before either fused kernel dereferences a factor
 * row, so a bad index can never touch arbitrary memory — and the compute
 * loops stay branch-free. */
#define MTTKRP_KERNELS(T, SUFFIX)                                           \
int64_t check_bounds_##SUFFIX(const T *idx, int64_t n, int64_t nmodes,    \
                              const int64_t *bound)                       \
{                                                                         \
    for (int64_t i = 0; i < n; ++i) {                                     \
        const T *row = idx + i * nmodes;                                  \
        for (int64_t w = 0; w < nmodes; ++w) {                            \
            int64_t r = (int64_t)row[w];                                  \
            if (r < 0 || r >= bound[w])                                   \
                return i * nmodes + w;                                    \
        }                                                                 \
    }                                                                     \
    return -1;                                                            \
}                                                                         \
                                                                          \
void fused_reduce_##SUFFIX(const T *idx, int64_t nmodes,                  \
                           const double *val, const double **facs,        \
                           int64_t mode, int64_t rank,                    \
                           const int64_t *starts, int64_t nseg,           \
                           double *partial)                               \
{                                                                         \
    for (int64_t s = 0; s < nseg; ++s) {                                  \
        int64_t lo = starts[s];                                           \
        int64_t hi = starts[s + 1];                                       \
        double *dst = partial + s * rank;                                 \
        for (int64_t r = 0; r < rank; ++r)                                \
            dst[r] = 0.0;                                                 \
        for (int64_t i = lo; i < hi; ++i) {                               \
            const T *row = idx + i * nmodes;                              \
            const double *base[MAX_MODES];                                \
            int64_t nw = 0;                                               \
            for (int64_t w = 0; w < nmodes; ++w)                          \
                if (w != mode)                                            \
                    base[nw++] = facs[w] + (int64_t)row[w] * rank;        \
            double v = val[i];                                            \
            for (int64_t r = 0; r < rank; ++r) {                          \
                double c = v;                                             \
                for (int64_t w = 0; w < nw; ++w)                          \
                    c *= base[w][r];                                      \
                dst[r] += c;                                              \
            }                                                             \
        }                                                                 \
    }                                                                     \
}                                                                         \
                                                                          \
void fused_scatter_##SUFFIX(const T *idx, int64_t n, int64_t nmodes,      \
                            const double *val, const double **facs,       \
                            int64_t mode, int64_t rank, double *out)      \
{                                                                         \
    for (int64_t i = 0; i < n; ++i) {                                     \
        const T *row = idx + i * nmodes;                                  \
        const double *base[MAX_MODES];                                    \
        int64_t nw = 0;                                                   \
        for (int64_t w = 0; w < nmodes; ++w)                              \
            if (w != mode)                                                \
                base[nw++] = facs[w] + (int64_t)row[w] * rank;            \
        double v = val[i];                                                \
        double *dst = out + (int64_t)row[mode] * rank;                    \
        for (int64_t r = 0; r < rank; ++r) {                              \
            double c = v;                                                 \
            for (int64_t w = 0; w < nw; ++w)                              \
                c *= base[w][r];                                          \
            dst[r] += c;                                                  \
        }                                                                 \
    }                                                                     \
}

""" % _CC_MAX_MODES + "".join(
    f"MTTKRP_KERNELS({'u' if dtype.kind == 'u' else ''}int"
    f"{dtype.itemsize * 8}_t, {suffix})\n"
    for dtype, suffix in _CC_INDEX_SUFFIX.items()
)


def _compile_cc_library() -> ctypes.CDLL:
    """Compile (or reuse) the content-addressed fused-kernel shared object."""
    compiler = os.environ.get("CC") or "cc"
    cc = shutil.which(compiler) or shutil.which("gcc")
    if cc is None:
        raise RuntimeError(
            f"no C compiler on PATH (tried {compiler!r} and 'gcc')"
        )
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = Path(
        os.environ.get(CC_CACHE_ENV) or DEFAULT_CC_CACHE_DIR
    ).expanduser()
    lib_path = cache_dir / f"mttkrp_fused_{digest}.so"
    if not lib_path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        src_path = cache_dir / f"mttkrp_fused_{digest}.c"
        src_path.write_text(_C_SOURCE)
        # Build to a private name, then atomically publish: concurrent
        # processes (e.g. spawn-context pool workers) race benignly.
        tmp_path = cache_dir / f".mttkrp_fused_{digest}.{os.getpid()}.so"
        proc = subprocess.run(
            [cc, "-O3", "-fPIC", "-shared", "-o", str(tmp_path), str(src_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{cc} failed ({proc.returncode}): {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp_path, lib_path)
    return ctypes.CDLL(str(lib_path))


def _build_cc_spec() -> KernelSpec:
    """Compile, bind, and probe the C tier; raises on any failure."""
    lib = _compile_cc_library()
    c_i64 = ctypes.c_int64
    p_idx = ctypes.c_void_p  # the index block, in any instantiated dtype
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_f64 = ctypes.POINTER(ctypes.c_double)
    pp_f64 = ctypes.POINTER(p_f64)
    # dtype -> (check_bounds, fused_reduce, fused_scatter) of that index type
    kernels = {}
    for dtype, suffix in _CC_INDEX_SUFFIX.items():
        check = getattr(lib, f"check_bounds_{suffix}")
        check.restype = c_i64
        check.argtypes = [p_idx, c_i64, c_i64, p_i64]
        reduce_fn = getattr(lib, f"fused_reduce_{suffix}")
        reduce_fn.restype = None
        reduce_fn.argtypes = [
            p_idx, c_i64, p_f64, pp_f64, c_i64, c_i64, p_i64, c_i64, p_f64,
        ]
        scatter_fn = getattr(lib, f"fused_scatter_{suffix}")
        scatter_fn.restype = None
        scatter_fn.argtypes = [
            p_idx, c_i64, c_i64, p_f64, pp_f64, c_i64, c_i64, p_f64,
        ]
        kernels[dtype] = (check, reduce_fn, scatter_fn)

    def _factor_ptrs(facs):
        return (p_f64 * len(facs))(
            *[f.ctypes.data_as(p_f64) for f in facs]
        )

    def _checked_bounds(idx, facs, mode, out_rows=None):
        bound = np.array([f.shape[0] for f in facs], dtype=np.int64)
        if out_rows is not None:
            bound[mode] = min(bound[mode], out_rows)
        bad = kernels[idx.dtype][0](
            idx.ctypes.data,
            c_i64(idx.shape[0]),
            c_i64(idx.shape[1]),
            bound.ctypes.data_as(p_i64),
        )
        if bad >= 0:
            _raise_fused_bounds_error(idx, facs, mode, out_rows)

    def reduce_batch(indices, values, factors, mode):
        if len(factors) > _CC_MAX_MODES:
            return _numpy_reduce_batch(indices, values, factors, mode)
        idx, val, facs = _fused_operands(
            indices, values, factors, _CC_INDEX_SUFFIX
        )
        _check_fused_shapes(idx, val, facs, mode)
        _checked_bounds(idx, facs, mode)
        keys = idx[:, mode]
        starts = segment_starts(keys)
        starts_ext = np.empty(starts.size + 1, dtype=np.int64)
        starts_ext[:-1] = starts
        starts_ext[-1] = idx.shape[0]
        rank = facs[0].shape[1]
        partial = np.empty((starts.size, rank), dtype=np.float64)
        kernels[idx.dtype][1](
            idx.ctypes.data,
            c_i64(idx.shape[1]),
            val.ctypes.data_as(p_f64),
            _factor_ptrs(facs),
            c_i64(mode),
            c_i64(rank),
            starts_ext.ctypes.data_as(p_i64),
            c_i64(starts.size),
            partial.ctypes.data_as(p_f64),
        )
        return keys[starts], partial

    def scatter_batch(out, indices, values, factors, mode):
        if len(factors) > _CC_MAX_MODES:
            return _numpy_scatter_batch(out, indices, values, factors, mode)
        idx, val, facs = _fused_operands(
            indices, values, factors, _CC_INDEX_SUFFIX
        )
        _check_fused_shapes(idx, val, facs, mode)
        if out.ndim != 2 or out.shape[1] != facs[0].shape[1]:
            raise TensorFormatError(
                f"out shape {out.shape} inconsistent with rank "
                f"{facs[0].shape[1]}"
            )
        if not (out.flags.c_contiguous and out.dtype == np.float64):
            raise TensorFormatError(
                "fused scatter needs a C-contiguous float64 out array"
            )
        _checked_bounds(idx, facs, mode, out_rows=out.shape[0])
        kernels[idx.dtype][2](
            idx.ctypes.data,
            c_i64(idx.shape[0]),
            c_i64(idx.shape[1]),
            val.ctypes.data_as(p_f64),
            _factor_ptrs(facs),
            c_i64(mode),
            c_i64(facs[0].shape[1]),
            out.ctypes.data_as(p_f64),
        )
        return out

    spec = KernelSpec(
        name="cc",
        bit_identical=False,
        reduce_batch=reduce_batch,
        scatter_batch=scatter_batch,
    )
    _probe_spec(spec)
    return spec


# ----------------------------------------------------------------------
# Probe: a freshly built tier must agree with the reference before it is
# ever dispatched to (a miscompiled kernel downgrades, never corrupts).
# ----------------------------------------------------------------------
def _probe_spec(spec: KernelSpec) -> None:
    """Run ``spec`` on a small batch in every index dtype a mode copy may
    hold (:data:`repro.tensor.coo.INDEX_DTYPES`) against the numpy
    reference; a narrow batch must also give exactly the int64 batch's
    bits. Raises on any disagreement, so one miscompiled instantiation
    downgrades the tier."""
    rng = np.random.default_rng(12345)
    shape = (11, 7, 9)
    nnz = 64
    indices = np.stack(
        [rng.integers(0, s, nnz) for s in shape], axis=1
    ).astype(np.int64)
    indices = indices[np.argsort(indices[:, 0], kind="stable")]
    values = rng.random(nnz)
    factors = [rng.random((s, 5)) for s in shape]
    want_rows, want_partial = _numpy_reduce_batch(indices, values, factors, 0)
    want_out = np.zeros((shape[1], 5))
    _numpy_scatter_batch(want_out, indices, values, factors, 1)
    bits = {}
    for dtype in INDEX_DTYPES:
        idx = indices.astype(dtype)
        rows, partial = spec.reduce_batch(idx, values, factors, 0)
        out = np.zeros_like(want_out)
        spec.scatter_batch(out, idx, values, factors, 1)
        if not (
            np.array_equal(rows, want_rows)
            and np.allclose(
                partial, want_partial, rtol=FUSED_RTOL, atol=FUSED_ATOL
            )
            and np.allclose(out, want_out, rtol=FUSED_RTOL, atol=FUSED_ATOL)
        ):
            raise RuntimeError(
                f"{spec.name} kernel probe on {dtype} indices "
                f"disagrees with the numpy reference"
            )
        bits[dtype] = (partial, out)
    wide = bits[np.dtype(np.int64)]
    for dtype, (partial, out) in bits.items():
        if not (
            np.array_equal(partial, wide[0]) and np.array_equal(out, wide[1])
        ):
            raise RuntimeError(
                f"{spec.name} kernel probe on {dtype} indices "
                f"differs from the same batch as int64"
            )


# ----------------------------------------------------------------------
# Registry state + dispatch API
# ----------------------------------------------------------------------
_BUILDERS = {"numba": _build_numba_spec, "cc": _build_cc_spec}
#: name -> (spec or None, unavailability reason or None); lazily filled.
_STATE: dict[str, tuple[KernelSpec | None, str | None]] = {}


def _disabled_kernels() -> set[str]:
    raw = os.environ.get(KERNEL_DISABLE_ENV, "")
    return {p.strip() for p in raw.split(",") if p.strip()}


def refresh_kernel_registry() -> None:
    """Drop every probed tier so the next lookup re-evaluates availability
    (tests toggling :data:`KERNEL_DISABLE_ENV` call this around the flip)."""
    _STATE.clear()


def _probe(name: str) -> tuple[KernelSpec | None, str | None]:
    if name not in _STATE:
        if name == "numpy":
            _STATE[name] = (_NUMPY_SPEC, None)
        elif name in _disabled_kernels():
            _STATE[name] = (
                None,
                f"disabled via {KERNEL_DISABLE_ENV}",
            )
        else:
            try:
                _STATE[name] = (_BUILDERS[name](), None)
            except Exception as exc:  # ImportError, compile or probe failure
                _STATE[name] = (None, f"{type(exc).__name__}: {exc}")
    return _STATE[name]


def validate_kernel_name(name, *, allow_auto: bool = True) -> str:
    """The one kernel-name domain check (config, CLI, executor, bench)."""
    valid = KERNEL_NAMES + ((AUTO_KERNEL,) if allow_auto else ())
    if not isinstance(name, str) or name not in valid:
        raise TensorFormatError(
            f"kernel must be one of {list(valid)}, got {name!r}"
        )
    return name


def kernel_availability() -> dict[str, str | None]:
    """``{tier: None if available else reason}`` for every registered tier."""
    return {name: _probe(name)[1] for name in KERNEL_NAMES}


def available_kernels() -> tuple[str, ...]:
    """The tiers that currently dispatch (numpy is always among them)."""
    return tuple(n for n in KERNEL_NAMES if _probe(n)[0] is not None)


def resolve_kernel_name(name: str = AUTO_KERNEL) -> str:
    """The concrete tier ``name`` dispatches to right now.

    ``"auto"`` picks the first available tier of
    :data:`KERNEL_PREFERENCE`; an explicit tier that is unavailable
    (missing dependency, failed JIT/compile, or disabled via
    :data:`KERNEL_DISABLE_ENV`) falls back to ``"numpy"`` — graceful
    degradation, with the reason preserved in :func:`kernel_availability`.
    """
    validate_kernel_name(name)
    if name == AUTO_KERNEL:
        for candidate in KERNEL_PREFERENCE:
            if _probe(candidate)[0] is not None:
                return candidate
        return "numpy"  # pragma: no cover - numpy is always available
    return name if _probe(name)[0] is not None else "numpy"


def get_kernel(name: str = AUTO_KERNEL) -> KernelSpec:
    """The :class:`KernelSpec` that ``name`` resolves to (never ``None``)."""
    spec = _probe(resolve_kernel_name(name))[0]
    assert spec is not None
    return spec
