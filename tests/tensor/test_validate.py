"""Tests for tensor structural diagnostics."""

import numpy as np
import pytest

from repro.errors import TensorFormatError
from repro.partition.plan import build_partition_plan
from repro.tensor.coo import SparseTensorCOO
from repro.tensor.validate import diagnose, require_canonical


class TestDiagnose:
    def test_clean_tensor(self, small_tensor):
        d = diagnose(small_tensor)
        assert d.canonical
        assert d.duplicate_coordinates == 0
        assert d.explicit_zeros == 0
        assert not d.degenerate_modes

    def test_duplicates_detected(self):
        t = SparseTensorCOO(
            np.array([[0, 0], [0, 0], [1, 1]]), np.array([1.0, 2.0, 3.0]), (2, 2)
        )
        d = diagnose(t)
        assert d.duplicate_coordinates == 1
        assert not d.canonical
        assert "duplicate" in d.summary()

    def test_explicit_zeros_detected(self):
        t = SparseTensorCOO(np.array([[0, 0], [1, 1]]), np.array([0.0, 2.0]), (2, 2))
        d = diagnose(t)
        assert d.explicit_zeros == 1
        assert not d.canonical

    def test_empty_slices_counted(self):
        t = SparseTensorCOO(np.array([[0, 0]]), np.array([1.0]), (5, 2))
        d = diagnose(t)
        assert d.empty_slices[0] == 4  # indices 1..4 of mode 0 unused
        assert d.empty_slices[1] == 1

    def test_degenerate_modes(self):
        t = SparseTensorCOO(np.array([[0, 0, 2]]), np.array([1.0]), (1, 1, 3))
        assert diagnose(t).degenerate_modes == (0, 1)

    def test_sortedness_flags(self, small_tensor):
        s = small_tensor.sorted_by_mode(1)
        d = diagnose(s)
        assert d.sorted_by_mode[1]

    def test_sortedness_of_a_narrow_mode_copy(self):
        """A plan's uint16 mode copy: unsigned differences must not wrap."""
        t = SparseTensorCOO(
            np.array([[1 << 15, 2], [0, 1], [(1 << 16) - 1, 0]]),
            np.ones(3),
            (1 << 16, 3),
        )
        copy = build_partition_plan(t, 1, n_shards=1).modes[0].tensor
        assert copy.indices.dtype == np.uint16
        assert diagnose(copy).sorted_by_mode == (True, False)
        assert diagnose(copy) == diagnose(t.sorted_by_mode(0))

    def test_empty_tensor(self):
        t = SparseTensorCOO(np.empty((0, 2), dtype=np.int64), np.empty(0), (3, 3))
        d = diagnose(t)
        assert d.canonical
        assert all(d.sorted_by_mode)


class TestRequireCanonical:
    def test_passthrough_when_clean(self, small_tensor):
        assert require_canonical(small_tensor) is small_tensor

    def test_raises_with_diagnostics(self):
        t = SparseTensorCOO(
            np.array([[0, 0], [0, 0]]), np.array([1.0, 1.0]), (2, 2)
        )
        with pytest.raises(TensorFormatError, match="duplicate"):
            require_canonical(t)
