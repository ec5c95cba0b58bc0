"""Tests for dense unfolding/folding and the column linearization."""

import numpy as np
import pytest

from repro.errors import TensorFormatError
from repro.tensor.dense import fold, unfold, unfold_columns
from repro.tensor.khatri_rao import khatri_rao


class TestUnfold:
    def test_unfold_shapes(self):
        arr = np.arange(2 * 3 * 4).reshape(2, 3, 4)
        assert unfold(arr, 0).shape == (2, 12)
        assert unfold(arr, 1).shape == (3, 8)
        assert unfold(arr, 2).shape == (4, 6)

    def test_fold_inverts_unfold(self):
        arr = np.random.default_rng(0).random((3, 4, 5))
        for mode in range(3):
            assert np.allclose(fold(unfold(arr, mode), mode, arr.shape), arr)

    def test_fold_rejects_bad_shape(self):
        with pytest.raises(TensorFormatError):
            fold(np.zeros((3, 5)), 0, (3, 4, 5))

    def test_unfold_mode_out_of_range(self):
        with pytest.raises(TensorFormatError):
            unfold(np.zeros((2, 2)), 2)

    def test_unfold_matches_entrywise_definition(self):
        """unfold(X, n)[i_n, col(i_-n)] == X[i] with earlier modes fastest."""
        arr = np.random.default_rng(1).random((3, 4, 2))
        u1 = unfold(arr, 1)
        for i in range(3):
            for j in range(4):
                for k in range(2):
                    col = i + k * 3  # modes 0 then 2, first fastest
                    assert u1[j, col] == arr[i, j, k]


class TestUnfoldColumns:
    def test_matches_dense_unfold(self):
        rng = np.random.default_rng(2)
        shape = (4, 3, 5)
        arr = rng.random(shape)
        coords = np.argwhere(arr > -1)  # every position
        for mode in range(3):
            cols = unfold_columns(coords, shape, mode)
            u = unfold(arr, mode)
            assert np.allclose(u[coords[:, mode], cols], arr[tuple(coords.T)])

    def test_bijective_over_positions(self):
        shape = (3, 4, 5)
        coords = np.argwhere(np.ones(shape, dtype=bool))
        for mode in range(3):
            cols = unfold_columns(coords, shape, mode)
            pairs = set(zip(coords[:, mode].tolist(), cols.tolist()))
            assert len(pairs) == coords.shape[0]

    def test_mode_out_of_range(self):
        with pytest.raises(TensorFormatError):
            unfold_columns(np.zeros((1, 2), dtype=np.int64), (2, 2), 5)

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
    def test_narrow_indices_do_not_wrap(self, dtype):
        """A partition plan's mode copies hold narrow indices; their column
        indices (up to 299 * 300 + 299 here) must not wrap at 2**16."""
        rng = np.random.default_rng(4)
        shape = (300, 300, 300)
        coords = np.stack([rng.integers(0, s, 200) for s in shape], axis=1)
        coords[0] = 299
        for mode in range(3):
            assert np.array_equal(
                unfold_columns(coords.astype(dtype), shape, mode),
                unfold_columns(coords, shape, mode),
            )


class TestUnfoldKhatriRaoConsistency:
    def test_mttkrp_identity(self):
        """unfold(X,d) @ kr(others) must equal the elementwise definition."""
        rng = np.random.default_rng(3)
        shape = (4, 3, 5)
        arr = rng.random(shape)
        rank = 2
        factors = [rng.random((s, rank)) for s in shape]
        for mode in range(3):
            others = [factors[m] for m in range(3) if m != mode]
            kr = khatri_rao(others)
            got = unfold(arr, mode) @ kr
            # brute force
            want = np.zeros((shape[mode], rank))
            for i in range(shape[0]):
                for j in range(shape[1]):
                    for k in range(shape[2]):
                        idx = (i, j, k)
                        row = idx[mode]
                        prod = arr[idx] * np.ones(rank)
                        for m in range(3):
                            if m != mode:
                                prod = prod * factors[m][idx[m]]
                        want[row] += prod
            assert np.allclose(got, want)
