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
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_scatter_matches_reference(self, name, mode):
        if name not in available_kernels():
            pytest.skip(f"{name} unavailable: {kernel_availability()[name]}")
        indices, values, factors = _sorted_batch(seed=10 + mode)
        spec = get_kernel(name)
        out = np.zeros((factors[mode].shape[0], factors[0].shape[1]))
        ref = np.zeros_like(out)
        get_kernel("numpy").scatter_batch(ref, indices, values, factors, mode)
        spec.scatter_batch(out, indices, values, factors, mode)
        if spec.bit_identical:
            assert np.array_equal(out, ref)
        else:
            assert np.allclose(out, ref, rtol=FUSED_RTOL, atol=FUSED_ATOL)

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
        out = np.zeros((4, 3))
        spec.scatter_batch(
            out, np.empty((0, 3), dtype=np.int64), np.empty(0), factors, 0
        )
        assert np.all(out == 0)

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

    @pytest.mark.parametrize("name", FUSED_TIERS)
    def test_scatter_out_too_small_rejected(self, name):
        spec = self._spec(name)
        indices, values, factors = _sorted_batch(nnz=20)
        out = np.zeros((2, factors[0].shape[1]))  # rows exceed 2
        with pytest.raises(TensorFormatError, match="out of range|outside"):
            spec.scatter_batch(out, indices, values, factors, 0)

    @pytest.mark.parametrize("name", FUSED_TIERS)
    def test_scatter_non_contiguous_out_rejected(self, name):
        spec = self._spec(name)
        indices, values, factors = _sorted_batch(nnz=20)
        rank = factors[0].shape[1]
        wide = np.zeros((factors[0].shape[0], 2 * rank))
        with pytest.raises(TensorFormatError, match="C-contiguous"):
            spec.scatter_batch(wide[:, ::2], indices, values, factors, 0)


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
        out64 = np.zeros((factors[2].shape[0], factors[0].shape[1]))
        out = np.zeros_like(out64)
        spec.scatter_batch(out64, indices, values, factors, 2)
        spec.scatter_batch(out, narrow, values, factors, 2)
        assert np.array_equal(out, out64)

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


def _bad_narrow_spec(dtype, nudge):
    """The numpy tier, except that batches of ``dtype`` come out nudged by
    ``nudge`` — a stand-in for one miscompiled index-type instantiation."""
    from repro.tensor.kernelreg import KernelSpec

    good = get_kernel("numpy")

    def reduce_batch(indices, values, factors, mode):
        rows, partial = good.reduce_batch(indices, values, factors, mode)
        return rows, (nudge(partial) if indices.dtype == dtype else partial)

    return KernelSpec("bad", False, reduce_batch, good.scatter_batch)


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
            _probe_spec(_bad_narrow_spec(dtype, nudge))

    def test_bad_narrow_instantiation_downgrades_the_tier(
        self, monkeypatch, registry_guard
    ):
        from repro.tensor import kernelreg

        def build():
            spec = _bad_narrow_spec(np.dtype(np.uint16), lambda p: p * 2.0)
            kernelreg._probe_spec(spec)
            return spec

        monkeypatch.setitem(kernelreg._BUILDERS, "cc", build)
        refresh_kernel_registry()
        assert resolve_kernel_name("cc") == "numpy"
        assert "uint16" in kernel_availability()["cc"]
