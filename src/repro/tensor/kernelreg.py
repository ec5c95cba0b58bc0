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
* ``"cc"`` — one C call and one pass per batch: each element's indices
  are bounds-checked before its factor rows are read, segments open where
  the output-mode key changes, and the contribution is computed lanes-
  innermost, with a dedicated body for the common ranks. Compiled **at
  runtime** with the host's C compiler (``cc``/``gcc``) into a shared
  object under ``~/.cache/repro/cc``, addressed by the hash of its build
  command, and loaded through :mod:`ctypes`. Available when a compiler is
  on ``PATH`` and the probe reduction matches the reference; no
  build-time dependency is added.

Tolerance policy
----------------
Fused tiers accumulate each segment *sequentially*, element by element
in input order. ``np.add.reduceat`` does **not**: for 2-D
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
from typing import Callable, NoReturn, Sequence

import numpy as np

from repro.errors import TensorFormatError
from repro.tensor.coo import INDEX_DTYPES
from repro.tensor.kernels import ec_contributions, segment_starts

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
#: via ``REPRO_CC_CACHE_DIR``); objects are addressed by the hash of their
#: build command (compiler, flags, source), so stale builds can never be
#: picked up.
CC_CACHE_ENV = "REPRO_CC_CACHE_DIR"
DEFAULT_CC_CACHE_DIR = "~/.cache/repro/cc"

#: The cc build flags: portable ``-O3`` (no ``-march=native``, so a cached
#: object runs on any host of the architecture), and ``-ffp-contract=off``
#: so that no compiler or target fuses the kernel's multiply and add into
#: an FMA and changes a lane's rounding.
_CC_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

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

#: Ranks the cc reduce compiles a dedicated body for (rank a compile-time
#: constant): CI's, the benchmark's and the config default. Any other rank
#: takes the generic body, which walks the rank in fixed ``_CC_BLOCK``-lane
#: blocks plus a one-lane tail.
_CC_SPECIALIZED_RANKS = (4, 8, 16, 32)
_CC_BLOCK = 8


@dataclass(frozen=True)
class KernelSpec:
    """One registered kernel tier.

    ``reduce_batch(indices, values, factors, mode) -> (rows, partial)``
    is the engine hot path — the fused gather→Hadamard→segment-reduce of a
    mode-sorted batch (``rows`` are the distinct output indices, ``partial``
    their summed contribution rows). ``bit_identical`` is True when the
    tier reproduces the numpy reference bit-for-bit (the golden contract);
    False marks a documented tolerance tier (:data:`FUSED_RTOL`).
    """

    name: str
    bit_identical: bool
    reduce_batch: Callable


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
    same shape/mode/rank checks ``ec_contributions`` performs, plus one
    value per element. The O(nnz) index-bounds check is *not* here — each
    compiled tier checks every index in-kernel, before any factor row it
    selects is read, and reports the first violation to
    :func:`_raise_fused_bounds_error`."""
    nmodes = len(factors)
    if nmodes == 0:
        raise TensorFormatError("factors must be a non-empty list")
    if indices.ndim != 2 or indices.shape[1] != nmodes:
        raise TensorFormatError(
            f"indices shape {indices.shape} inconsistent with {nmodes} factors"
        )
    if values.shape != (indices.shape[0],):
        raise TensorFormatError(
            f"values shape {values.shape} inconsistent with "
            f"{indices.shape[0]} elements"
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


def _raise_fused_bounds_error(
    idx: np.ndarray, facs: Sequence[np.ndarray], flat: int
) -> NoReturn:
    """Turn a kernel's bounds flag into the named error (cold path).

    A compiled kernel reads ``factors[w][indices[i, w]]`` directly, so an
    out-of-range index that the numpy tier would turn into an
    ``IndexError`` is rejected before that row is read; ``flat`` is the
    position ``i * nmodes + w`` of the first one."""
    i, w = divmod(flat, idx.shape[1])
    raise TensorFormatError(
        f"mode-{w} index {idx[i, w]} of element {i} outside factor "
        f"extent {facs[w].shape[0]}"
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


_NUMPY_SPEC = KernelSpec(
    name="numpy", bit_identical=True, reduce_batch=_numpy_reduce_batch
)


# ----------------------------------------------------------------------
# numba tier: parallel-njit fused kernels
# ----------------------------------------------------------------------
def _build_numba_spec() -> KernelSpec:
    """Compile (and probe) the fused numba kernels; raises on any failure."""
    import numba

    # In-kernel bounds scan: one native-speed pass before any factor
    # dereference, keeping the fused compute loop branch-free.
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

    def reduce_batch(indices, values, factors, mode):
        idx, val, facs = _fused_operands(indices, values, factors)
        _check_fused_shapes(idx, val, facs, mode)
        bound = np.array([f.shape[0] for f in facs], dtype=np.int64)
        bad = _bounds_violation(idx, bound)
        if bad >= 0:
            _raise_fused_bounds_error(idx, facs, bad)
        keys = idx[:, mode]
        starts = segment_starts(keys)
        starts_ext = np.empty(starts.size + 1, dtype=np.int64)
        starts_ext[:-1] = starts
        starts_ext[-1] = idx.shape[0]
        partial = np.empty((starts.size, facs[0].shape[1]), dtype=np.float64)
        _fused_reduce(idx, val, tuple(facs), mode, starts_ext, partial)
        return keys[starts], partial

    spec = KernelSpec(
        name="numba", bit_identical=False, reduce_batch=reduce_batch
    )
    _probe_spec(spec)
    return spec


# ----------------------------------------------------------------------
# cc tier: runtime-compiled C via ctypes
# ----------------------------------------------------------------------
_C_SOURCE = r"""
#include <stdint.h>

#define MAX_MODES %d
#define BLOCK %d
#define MAX_WIDTH %d

/* One element's contribution to lanes [off, off + width) of its segment's
 * row: c = v, then c *= b_w for every non-output mode w in order, then
 * dst += c. Lanes are the innermost loop, so each step vectorizes across
 * lanes, while every lane still does the same multiplies and adds in the
 * same order as a lane-at-a-time loop (and -ffp-contract=off keeps a
 * multiply and an add from fusing). width is a compile-time constant at
 * every call site: a specialized rank, BLOCK, or 1 for the tail. */
static inline __attribute__((always_inline)) void
add_contribution(double *dst, const double *const *base, int64_t nw,
                 double v, int64_t off, int64_t width)
{
    double c[MAX_WIDTH];
    for (int64_t r = 0; r < width; ++r)
        c[r] = v;
    for (int64_t w = 0; w < nw; ++w) {
        const double *b = base[w] + off;
        for (int64_t r = 0; r < width; ++r)
            c[r] *= b[r];
    }
    for (int64_t r = 0; r < width; ++r)
        dst[off + r] += c[r];
}

/* fused_reduce: the whole reduction of one mode-sorted batch in one pass.
 * Per element: check every index against bound[w] before any factor row
 * is read (a violation returns -1 - (i * nmodes + w)); open a segment when
 * the output-mode key changes (rows[nseg] = key, partial row zeroed; a
 * segment past the cap rows of the buffers returns -1 - n * nmodes); add
 * the contribution. Returns the segment count. It is written once over an
 * index type T and instantiated below for every index dtype a mode copy
 * may hold, so a narrow batch is reduced as it is stored; each index is
 * widened to int64 as it is read, so the floating-point operations are the
 * same for every T. The ranks in SPECIALIZED_RANKS get a body with that
 * rank as a constant; any other rank runs in BLOCK-lane blocks plus a
 * one-lane tail. */
#define RANK_CASE(BODY, R)                                                 \
    case R:                                                               \
        return BODY(idx, n, nmodes, val, facs, mode, R, R, bound, cap,    \
                    rows, partial);

#define MTTKRP_KERNELS(T, SUFFIX)                                           \
static inline __attribute__((always_inline)) int64_t                        \
reduce_##SUFFIX(const T *idx, int64_t n, int64_t nmodes,                  \
                const double *val, const double **facs, int64_t mode,     \
                int64_t rank, int64_t width, const int64_t *bound,         \
                int64_t cap, T *rows, double *partial)                    \
{                                                                         \
    int64_t nseg = 0;                                                     \
    int64_t key = 0;                                                      \
    double *dst = partial;                                                \
    for (int64_t i = 0; i < n; ++i) {                                     \
        const T *row = idx + i * nmodes;                                  \
        const double *base[MAX_MODES];                                    \
        int64_t nw = 0;                                                   \
        for (int64_t w = 0; w < nmodes; ++w) {                            \
            int64_t r = (int64_t)row[w];                                  \
            if (r < 0 || r >= bound[w])                                   \
                return -1 - (i * nmodes + w);                             \
            if (w != mode)                                                \
                base[nw++] = facs[w] + r * rank;                          \
        }                                                                 \
        if (nseg == 0 || (int64_t)row[mode] != key) {                     \
            if (nseg == cap)                                              \
                return -1 - n * nmodes;                                   \
            key = (int64_t)row[mode];                                     \
            rows[nseg] = row[mode];                                       \
            dst = partial + nseg * rank;                                  \
            for (int64_t r = 0; r < rank; ++r)                            \
                dst[r] = 0.0;                                             \
            ++nseg;                                                       \
        }                                                                 \
        double v = val[i];                                                \
        int64_t off = 0;                                                  \
        for (; off + width <= rank; off += width)                         \
            add_contribution(dst, base, nw, v, off, width);               \
        for (; off < rank; ++off)                                         \
            add_contribution(dst, base, nw, v, off, 1);                   \
    }                                                                     \
    return nseg;                                                          \
}                                                                         \
                                                                          \
int64_t fused_reduce_##SUFFIX(const T *idx, int64_t n, int64_t nmodes,    \
                              const double *val, const double **facs,     \
                              int64_t mode, int64_t rank,                 \
                              const int64_t *bound, int64_t cap, T *rows, \
                              double *partial)                            \
{                                                                         \
    switch (rank) {                                                       \
        SPECIALIZED_RANKS(reduce_##SUFFIX)                                \
    default:                                                              \
        return reduce_##SUFFIX(idx, n, nmodes, val, facs, mode, rank,     \
                               BLOCK, bound, cap, rows, partial);         \
    }                                                                     \
}

""" % (_CC_MAX_MODES, _CC_BLOCK, max(_CC_SPECIALIZED_RANKS)) + (
    "#define SPECIALIZED_RANKS(BODY) "
    + " ".join(f"RANK_CASE(BODY, {r})" for r in _CC_SPECIALIZED_RANKS)
    + "\n"
) + "".join(
    f"MTTKRP_KERNELS({'u' if dtype.kind == 'u' else ''}int"
    f"{dtype.itemsize * 8}_t, {suffix})\n"
    for dtype, suffix in _CC_INDEX_SUFFIX.items()
)


def _compile_cc_library() -> ctypes.CDLL:
    """Compile (or reuse) the fused-kernel shared object, addressed by the
    hash of its whole build command: compiler, flags and source."""
    compiler = os.environ.get("CC") or "cc"
    cc = shutil.which(compiler) or shutil.which("gcc")
    if cc is None:
        raise RuntimeError(
            f"no C compiler on PATH (tried {compiler!r} and 'gcc')"
        )
    key = "\0".join((os.path.realpath(cc), *_CC_FLAGS, _C_SOURCE))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
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
            [cc, *_CC_FLAGS, "-o", str(tmp_path), str(src_path)],
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
    ptr = ctypes.c_void_p
    # dtype -> fused_reduce of that index type
    kernels = {}
    for dtype, suffix in _CC_INDEX_SUFFIX.items():
        fn = getattr(lib, f"fused_reduce_{suffix}")
        fn.restype = c_i64
        fn.argtypes = [
            ptr, c_i64, c_i64, ptr, ptr, c_i64, c_i64, ptr, c_i64, ptr, ptr,
        ]
        kernels[dtype] = fn

    def reduce_batch(indices, values, factors, mode):
        if len(factors) > _CC_MAX_MODES:
            return _numpy_reduce_batch(indices, values, factors, mode)
        idx, val, facs = _fused_operands(
            indices, values, factors, _CC_INDEX_SUFFIX
        )
        _check_fused_shapes(idx, val, facs, mode)
        n, nmodes = idx.shape
        rank = facs[0].shape[1]
        fac_ptrs = (ptr * nmodes)(*[f.ctypes.data for f in facs])
        bound = (c_i64 * nmodes)(*[f.shape[0] for f in facs])
        overflow = -1 - n * nmodes
        # A mode-sorted batch has at most one segment per output row, so
        # the buffers stay small when the output mode is short; a batch
        # with more key runs than that (unsorted) is rerun with one row
        # per element.
        for cap in (min(n, facs[mode].shape[0]), n):
            rows = np.empty(cap, dtype=idx.dtype)
            partial = np.empty((cap, rank), dtype=np.float64)
            nseg = kernels[idx.dtype](
                idx.ctypes.data,
                n,
                nmodes,
                val.ctypes.data,
                fac_ptrs,
                mode,
                rank,
                bound,
                cap,
                rows.ctypes.data,
                partial.ctypes.data,
            )
            if nseg != overflow:
                break
        if nseg < 0:
            _raise_fused_bounds_error(idx, facs, -1 - nseg)
        return rows[:nseg], partial[:nseg]

    spec = KernelSpec(name="cc", bit_identical=False, reduce_batch=reduce_batch)
    _probe_spec(spec)
    return spec


# ----------------------------------------------------------------------
# Probe: a freshly built tier must agree with the reference before it is
# ever dispatched to (a miscompiled kernel downgrades, never corrupts).
# ----------------------------------------------------------------------
#: Every compiled rank specialization plus one generic rank (one block
#: and a tail), so that one miscompiled body downgrades the tier.
_PROBE_RANKS = _CC_SPECIALIZED_RANKS + (_CC_BLOCK + 5,)


def _probe_spec(spec: KernelSpec) -> None:
    """Run ``spec`` on a small batch at every rank of :data:`_PROBE_RANKS`
    and in every index dtype a mode copy may hold
    (:data:`repro.tensor.coo.INDEX_DTYPES`) against the numpy reference; a
    narrow batch must also give exactly the int64 batch's bits. Raises on
    any disagreement, so one miscompiled instantiation downgrades the
    tier."""
    rng = np.random.default_rng(12345)
    shape = (11, 7, 9)
    nnz = 64
    indices = np.stack(
        [rng.integers(0, s, nnz) for s in shape], axis=1
    ).astype(np.int64)
    indices = indices[np.argsort(indices[:, 0], kind="stable")]
    values = rng.random(nnz)
    for rank in _PROBE_RANKS:
        factors = [rng.random((s, rank)) for s in shape]
        want_rows, want_partial = _numpy_reduce_batch(
            indices, values, factors, 0
        )
        bits = {}
        for dtype in INDEX_DTYPES:
            rows, partial = spec.reduce_batch(
                indices.astype(dtype), values, factors, 0
            )
            if not (
                np.array_equal(rows, want_rows)
                and np.allclose(
                    partial, want_partial, rtol=FUSED_RTOL, atol=FUSED_ATOL
                )
            ):
                raise RuntimeError(
                    f"{spec.name} kernel probe on {dtype} indices at rank "
                    f"{rank} disagrees with the numpy reference"
                )
            bits[dtype] = partial
        wide = bits[np.dtype(np.int64)]
        for dtype, partial in bits.items():
            if not np.array_equal(partial, wide):
                raise RuntimeError(
                    f"{spec.name} kernel probe on {dtype} indices at rank "
                    f"{rank} differs from the same batch as int64"
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
