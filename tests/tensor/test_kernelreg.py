"""Tests for the kernel registry: dispatch, fallback, and tier equivalence.

The registry contract: ``numpy`` is always available and bit-identical to
the reference pipeline; compiled tiers (``numba``, ``cc``) are probed
lazily, fall back to numpy gracefully when their toolchain is missing or
disabled, and — when available — reproduce the reference within the
documented fused tolerance (:data:`FUSED_RTOL`/:data:`FUSED_ATOL`, per-
segment sequential accumulation vs ``np.add.reduceat``'s internal
association tree).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TensorFormatError
from repro.tensor.kernels import ec_contributions, segment_starts
from repro.tensor.kernelreg import (
    AUTO_KERNEL,
    CC_CACHE_ENV,
    FUSED_ATOL,
    FUSED_RTOL,
    KERNEL_DISABLE_ENV,
    KERNEL_NAMES,
    KERNEL_PREFERENCE,
    available_kernels,
    get_kernel,
    kernel_availability,
    refresh_kernel_registry,
    resolve_kernel_name,
    validate_kernel_name,
)


@pytest.fixture
def registry_guard():
    """Re-probe the registry after a test that toggles its environment."""
    refresh_kernel_registry()
    yield
    refresh_kernel_registry()


def _sorted_batch(seed=0, shape=(13, 9, 11), nnz=200, rank=5, mode=0):
    rng = np.random.default_rng(seed)
    indices = np.stack(
        [rng.integers(0, s, nnz) for s in shape], axis=1
    ).astype(np.int64)
    indices = indices[np.argsort(indices[:, mode], kind="stable")]
    values = rng.random(nnz)
    factors = [rng.random((s, rank)) for s in shape]
    return indices, values, factors


class TestRegistryDispatch:
    def test_numpy_always_available_and_bit_identical(self):
        assert "numpy" in available_kernels()
        spec = get_kernel("numpy")
        assert spec.name == "numpy" and spec.bit_identical

    def test_validate_kernel_name_domain(self):
        for name in KERNEL_NAMES + (AUTO_KERNEL,):
            assert validate_kernel_name(name) == name
        with pytest.raises(TensorFormatError, match="kernel must be one of"):
            validate_kernel_name("fortran")
        with pytest.raises(TensorFormatError):
            validate_kernel_name(None)
        with pytest.raises(TensorFormatError):
            validate_kernel_name("auto", allow_auto=False)

    def test_availability_covers_every_tier(self):
        avail = kernel_availability()
        assert set(avail) == set(KERNEL_NAMES)
        assert avail["numpy"] is None
        for name, reason in avail.items():
            assert reason is None or isinstance(reason, str)

    def test_auto_resolves_to_preferred_available(self):
        resolved = resolve_kernel_name(AUTO_KERNEL)
        avail = available_kernels()
        assert resolved in avail
        # first available tier in preference order wins
        assert resolved == next(k for k in KERNEL_PREFERENCE if k in avail)

    def test_explicit_available_tier_resolves_to_itself(self):
        for name in available_kernels():
            assert resolve_kernel_name(name) == name
            assert get_kernel(name).name == name

    def test_bad_name_raises_not_falls_back(self):
        with pytest.raises(TensorFormatError):
            resolve_kernel_name("simd")
        with pytest.raises(TensorFormatError):
            get_kernel("simd")


class TestDisableAndFallback:
    def test_disable_env_forces_numpy(self, monkeypatch, registry_guard):
        monkeypatch.setenv(KERNEL_DISABLE_ENV, "numba,cc")
        refresh_kernel_registry()
        assert available_kernels() == ("numpy",)
        assert resolve_kernel_name(AUTO_KERNEL) == "numpy"
        # explicit-but-unavailable tiers degrade, with the reason queryable
        assert resolve_kernel_name("cc") == "numpy"
        assert resolve_kernel_name("numba") == "numpy"
        assert get_kernel("cc").name == "numpy"
        avail = kernel_availability()
        assert KERNEL_DISABLE_ENV in avail["cc"]
        assert KERNEL_DISABLE_ENV in avail["numba"]

    def test_partial_disable_keeps_other_tiers(self, monkeypatch, registry_guard):
        monkeypatch.setenv(KERNEL_DISABLE_ENV, "numba")
        refresh_kernel_registry()
        assert "numba" not in available_kernels()
        assert "numpy" in available_kernels()

    def test_refresh_reprobes(self, monkeypatch, registry_guard):
        monkeypatch.setenv(KERNEL_DISABLE_ENV, "numba,cc")
        refresh_kernel_registry()
        assert available_kernels() == ("numpy",)
        monkeypatch.delenv(KERNEL_DISABLE_ENV)
        refresh_kernel_registry()
        assert set(available_kernels()) >= {"numpy"}

    def test_missing_dependency_reason_is_recorded(self):
        """Any unavailable tier must say why (exception type + message)."""
        for name, reason in kernel_availability().items():
            if reason is not None:
                assert ":" in reason or KERNEL_DISABLE_ENV in reason

    @pytest.mark.skipif(
        "cc" not in available_kernels(),
        reason="no C toolchain on this host",
    )
    def test_cc_cache_dir_override_compiles_fresh(
        self, tmp_path, monkeypatch, registry_guard
    ):
        monkeypatch.setenv(CC_CACHE_ENV, str(tmp_path))
        refresh_kernel_registry()
        assert "cc" in available_kernels()
        assert list(tmp_path.glob("mttkrp_fused_*.so"))

    @pytest.mark.skipif(
        "cc" not in available_kernels(),
        reason="no C toolchain on this host",
    )
    def test_cc_build_flags_key_the_object(
        self, tmp_path, monkeypatch, registry_guard
    ):
        """The object is addressed by its whole build command, so a change
        of flags compiles afresh instead of reusing a stale object."""
        from repro.tensor import kernelreg

        monkeypatch.setenv(CC_CACHE_ENV, str(tmp_path))
        refresh_kernel_registry()
        assert "cc" in available_kernels()
        first = set(tmp_path.glob("mttkrp_fused_*.so"))
        monkeypatch.setattr(
            kernelreg, "_CC_FLAGS", kernelreg._CC_FLAGS + ("-DPROBE_FLAG",)
        )
        refresh_kernel_registry()
        assert "cc" in available_kernels()
        second = set(tmp_path.glob("mttkrp_fused_*.so")) - first
        assert len(first) == 1 and len(second) == 1


class TestTierEquivalence:
    """Every available tier agrees with the reference on random batches:
    bit-identical tiers exactly, fused tiers at the documented tolerance."""

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_reduce_matches_reference(self, name, mode):
        if name not in available_kernels():
            pytest.skip(f"{name} unavailable: {kernel_availability()[name]}")
        indices, values, factors = _sorted_batch(seed=mode, mode=mode)
        ref_rows, ref_partial = get_kernel("numpy").reduce_batch(
            indices, values, factors, mode
        )
        spec = get_kernel(name)
        rows, partial = spec.reduce_batch(indices, values, factors, mode)
        assert np.array_equal(rows, ref_rows)
        if spec.bit_identical:
            assert np.array_equal(partial, ref_partial)
        else:
            assert np.allclose(
                partial, ref_partial, rtol=FUSED_RTOL, atol=FUSED_ATOL
            )

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_tier_is_deterministic_across_calls(self, name):
        """The tolerance tier promises the *same bits on every call* (stable
        association order), even where it differs from numpy's."""
        if name not in available_kernels():
            pytest.skip(f"{name} unavailable")
        indices, values, factors = _sorted_batch(seed=3)
        spec = get_kernel(name)
        _, first = spec.reduce_batch(indices, values, factors, 0)
        for _ in range(3):
            _, again = spec.reduce_batch(indices, values, factors, 0)
            assert np.array_equal(first, again)

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_empty_batch(self, name):
        if name not in available_kernels():
            pytest.skip(f"{name} unavailable")
        spec = get_kernel(name)
        factors = [np.ones((4, 3)), np.ones((5, 3)), np.ones((6, 3))]
        rows, partial = spec.reduce_batch(
            np.empty((0, 3), dtype=np.int64), np.empty(0), factors, 0
        )
        assert rows.size == 0 and partial.shape == (0, 3)

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_four_mode_batch(self, name):
        if name not in available_kernels():
            pytest.skip(f"{name} unavailable")
        indices, values, factors = _sorted_batch(
            seed=4, shape=(6, 5, 7, 4), nnz=120, rank=3, mode=2
        )
        ref_rows, ref_partial = get_kernel("numpy").reduce_batch(
            indices, values, factors, 2
        )
        rows, partial = get_kernel(name).reduce_batch(
            indices, values, factors, 2
        )
        assert np.array_equal(rows, ref_rows)
        assert np.allclose(partial, ref_partial, rtol=FUSED_RTOL, atol=FUSED_ATOL)


FUSED_TIERS = [n for n in KERNEL_NAMES if n != "numpy"]


class TestFusedPreconditions:
    """A compiled tier dereferences raw pointers — malformed operands must
    die as named :class:`TensorFormatError`\\ s before the kernel runs."""

    def _spec(self, name):
        if name not in available_kernels():
            pytest.skip(f"{name} unavailable")
        return get_kernel(name)

    @pytest.mark.parametrize("name", FUSED_TIERS)
    def test_out_of_range_index_rejected(self, name):
        spec = self._spec(name)
        indices, values, factors = _sorted_batch(nnz=20)
        indices[7, 1] = factors[1].shape[0]  # one past the extent
        with pytest.raises(TensorFormatError, match="outside factor extent"):
            spec.reduce_batch(indices, values, factors, 0)

    @pytest.mark.parametrize("name", FUSED_TIERS)
    def test_negative_index_rejected(self, name):
        spec = self._spec(name)
        indices, values, factors = _sorted_batch(nnz=20)
        indices[3, 2] = -1
        with pytest.raises(TensorFormatError, match="outside factor extent"):
            spec.reduce_batch(indices, values, factors, 0)

    @pytest.mark.parametrize("name", FUSED_TIERS)
    def test_values_length_mismatch_rejected(self, name):
        spec = self._spec(name)
        indices, values, factors = _sorted_batch(nnz=20)
        with pytest.raises(TensorFormatError, match="values shape"):
            spec.reduce_batch(indices, values[:-1], factors, 0)

    @pytest.mark.parametrize("name", FUSED_TIERS)
    def test_empty_factors_rejected(self, name):
        spec = self._spec(name)
        with pytest.raises(TensorFormatError, match="non-empty"):
            spec.reduce_batch(
                np.empty((0, 0), dtype=np.int64), np.empty(0), [], 0
            )

    @pytest.mark.parametrize("name", FUSED_TIERS)
    def test_mismatched_rank_rejected(self, name):
        spec = self._spec(name)
        indices, values, factors = _sorted_batch(nnz=20)
        factors[1] = factors[1][:, :-1]  # rank 4 among rank-5 factors
        with pytest.raises(TensorFormatError, match="factor 1"):
            spec.reduce_batch(indices, values, factors, 0)

NARROW_DTYPES = [np.uint32, np.uint16]


class TestNarrowIndexTypes:
    """Resident mode copies hold narrow indices (uint16/uint32): every tier
    reduces them to exactly the bits of the same batch as int64, and the
    cc tier does so with its own instantiation instead of an upcast."""

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    @pytest.mark.parametrize("dtype", NARROW_DTYPES)
    def test_narrow_batch_equals_int64_batch(self, name, dtype):
        if name not in available_kernels():
            pytest.skip(f"{name} unavailable")
        spec = get_kernel(name)
        indices, values, factors = _sorted_batch(seed=6, mode=1)
        narrow = indices.astype(dtype)
        rows64, partial64 = spec.reduce_batch(indices, values, factors, 1)
        rows, partial = spec.reduce_batch(narrow, values, factors, 1)
        assert np.array_equal(rows, rows64)
        assert np.array_equal(partial, partial64)

    @pytest.mark.skipif(
        "cc" not in available_kernels(), reason="no C toolchain on this host"
    )
    @pytest.mark.parametrize("dtype", NARROW_DTYPES)
    def test_cc_reduces_narrow_indices_natively(self, dtype):
        """The rows a cc reduction returns keep the batch's dtype: the
        batch was not widened to int64 on the way in."""
        indices, values, factors = _sorted_batch(seed=7)
        rows, _ = get_kernel("cc").reduce_batch(
            indices.astype(dtype), values, factors, 0
        )
        assert rows.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("name", FUSED_TIERS)
    @pytest.mark.parametrize("dtype", NARROW_DTYPES)
    def test_narrow_out_of_range_index_rejected(self, name, dtype):
        if name not in available_kernels():
            pytest.skip(f"{name} unavailable")
        indices, values, factors = _sorted_batch(nnz=20)
        indices[5, 2] = factors[2].shape[0]  # one past the extent
        with pytest.raises(TensorFormatError, match="outside factor extent"):
            get_kernel(name).reduce_batch(
                indices.astype(dtype), values, factors, 0
            )


def _sequential_reference(indices, values, factors, mode):
    """The cc tier's exact arithmetic, in numpy: ``ec_contributions`` forms
    each element's product chain in the kernel's order (value, then every
    non-output mode in turn), and each segment adds its elements one at a
    time in input order."""
    keys = np.asarray(indices[:, mode])
    contrib = ec_contributions(indices, values, factors, mode)
    starts = segment_starts(keys)
    ends = np.append(starts[1:], keys.size)
    partial = np.empty((starts.size, contrib.shape[1]))
    for s, (lo, hi) in enumerate(zip(starts, ends)):
        partial[s] = np.add.accumulate(contrib[lo:hi], axis=0)[-1]
    return keys[starts], partial


EXACT_SHAPE = (13, 9, 11, 7, 5)
INDEX_TYPES = [np.int64, np.uint32, np.uint16]


@pytest.mark.skipif(
    "cc" not in available_kernels(), reason="no C toolchain on this host"
)
class TestCcExactBits:
    """The cc tier's bits are pinned exactly, not just to the tolerance
    tier: every rank (the compiled specializations and the generic path on
    either side of them), index type and mode count gives the sequential
    numpy reference's bits, and a bad index anywhere in a batch raises
    the named error before any of its factor rows are read."""

    def _check(self, indices, values, factors, mode):
        rows, partial = get_kernel("cc").reduce_batch(
            indices, values, factors, mode
        )
        want_rows, want_partial = _sequential_reference(
            indices, values, factors, mode
        )
        assert np.array_equal(rows, want_rows)
        assert rows.dtype == indices.dtype
        assert partial.shape == want_partial.shape
        assert np.array_equal(partial, want_partial)

    @pytest.mark.parametrize("rank", [0, 1, 4, 8, 16, 32, 33])
    @pytest.mark.parametrize("dtype", INDEX_TYPES)
    @pytest.mark.parametrize("nmodes", [3, 4, 5])
    def test_matches_sequential_reference(self, rank, dtype, nmodes):
        mode = nmodes // 2
        indices, values, factors = _sorted_batch(
            seed=rank + nmodes, shape=EXACT_SHAPE[:nmodes], nnz=300,
            rank=rank, mode=mode,
        )
        self._check(indices.astype(dtype), values, factors, mode)

    @pytest.mark.parametrize("rank", [16, 33])
    @pytest.mark.parametrize("dtype", INDEX_TYPES)
    def test_edge_batches(self, rank, dtype):
        indices, values, factors = _sorted_batch(seed=9, rank=rank)
        indices = indices.astype(dtype)
        keys = indices[:, 0].astype(np.int64)
        # the first element that continues its predecessor's segment
        mid = int(np.flatnonzero(keys[1:] == keys[:-1])[0]) + 1
        for lo, hi in [(0, 0), (0, 1), (mid, indices.shape[0]), (mid, mid + 3)]:
            self._check(indices[lo:hi], values[lo:hi], factors, 0)

    @pytest.mark.parametrize("rank", [16, 5])
    def test_unsorted_batch_with_more_runs_than_rows(self, rank):
        """Key runs, not distinct keys, make segments: a batch that is not
        sorted by its output mode still reduces run by run."""
        indices, values, factors = _sorted_batch(
            seed=11, shape=(3, 9, 11), nnz=60, rank=rank
        )
        indices[:, 0] = np.arange(60) % 3
        self._check(indices, values, factors, 0)
        indices[-1, 1] = factors[1].shape[0]
        with pytest.raises(TensorFormatError, match="outside factor extent"):
            get_kernel("cc").reduce_batch(indices, values, factors, 0)

    @pytest.mark.parametrize("rank", [16, 5])
    @pytest.mark.parametrize(
        "where", ["last element", "output-mode column", "negative int64"]
    )
    def test_bad_index_rejected(self, rank, where):
        indices, values, factors = _sorted_batch(nnz=40, rank=rank)
        if where == "last element":
            indices[-1, 2] = factors[2].shape[0]
        elif where == "output-mode column":
            indices[-1, 0] = factors[0].shape[0]
        else:
            indices[-1, 1] = -1
        with pytest.raises(TensorFormatError, match="outside factor extent"):
            get_kernel("cc").reduce_batch(indices, values, factors, 0)


def _bad_spec(nudge, dtype=None, rank=None):
    """The numpy tier, except that batches of ``dtype`` (any dtype when
    None) at ``rank`` (any rank when None) come out nudged by ``nudge`` — a
    stand-in for one miscompiled index-type or rank instantiation."""
    from repro.tensor.kernelreg import KernelSpec

    good = get_kernel("numpy")

    def reduce_batch(indices, values, factors, mode):
        rows, partial = good.reduce_batch(indices, values, factors, mode)
        bad = dtype in (None, indices.dtype) and rank in (
            None, partial.shape[1]
        )
        return rows, (nudge(partial) if bad else partial)

    return KernelSpec("bad", False, reduce_batch)


class TestProbeCoversEveryIndexType:
    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
    @pytest.mark.parametrize(
        "nudge,message",
        [
            (lambda p: p * (1 + 1e-6), "disagrees with the numpy reference"),
            (lambda p: np.nextafter(p, np.inf), "differs from the same batch"),
        ],
    )
    def test_probe_rejects_one_bad_instantiation(self, dtype, nudge, message):
        from repro.tensor.kernelreg import _probe_spec

        dtype = np.dtype(dtype)
        with pytest.raises(RuntimeError, match=f"{dtype}.*{message}"):
            _probe_spec(_bad_spec(nudge, dtype))

    def test_probe_rejects_one_bad_rank(self):
        from repro.tensor.kernelreg import _probe_spec

        with pytest.raises(
            RuntimeError, match="rank 16 disagrees with the numpy reference"
        ):
            _probe_spec(_bad_spec(lambda p: p * (1 + 1e-6), rank=16))

    def test_bad_narrow_instantiation_downgrades_the_tier(
        self, monkeypatch, registry_guard
    ):
        from repro.tensor import kernelreg

        def build():
            spec = _bad_spec(lambda p: p * 2.0, np.dtype(np.uint16))
            kernelreg._probe_spec(spec)
            return spec

        monkeypatch.setitem(kernelreg._BUILDERS, "cc", build)
        refresh_kernel_registry()
        assert resolve_kernel_name("cc") == "numpy"
        assert "uint16" in kernel_availability()["cc"]
