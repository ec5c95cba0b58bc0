"""Dense tensor helpers: matricization (unfolding) and its inverse.

The paper (§2.1.3) defines the mode-n matricization ``X_(n)`` whose columns
sweep all other mode indices. We follow the Kolda & Bader convention where
the column index of entry ``(i_0, ..., i_{N-1})`` in ``X_(n)`` is

    j = sum_{k != n} i_k * prod_{m < k, m != n} I_m

i.e. the *earlier* non-n modes vary fastest. This matches the Khatri-Rao
ordering used in :mod:`repro.tensor.khatri_rao`, so that

    mttkrp(X, factors, n) == unfold(X, n) @ khatri_rao(factors except n)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import TensorFormatError
from repro.tensor.coo import SparseTensorCOO

__all__ = ["unfold", "fold", "dense_from_coo", "unfold_columns"]


def _other_modes(nmodes: int, mode: int) -> list[int]:
    return [m for m in range(nmodes) if m != mode]


def unfold_columns(indices: np.ndarray, shape: Sequence[int], mode: int) -> np.ndarray:
    """Column index in ``X_(mode)`` for each COO coordinate row.

    Vectorized form of the Kolda-Bader linearization; used by both the dense
    reference and the BLCO linearized key computation tests.
    """
    shape = tuple(int(s) for s in shape)
    nmodes = len(shape)
    if not 0 <= mode < nmodes:
        raise TensorFormatError(f"mode {mode} out of range")
    cols = np.zeros(indices.shape[0], dtype=np.int64)
    stride = 1
    for m in _other_modes(nmodes, mode):
        # widen first: a narrow (uint16/uint32) column would wrap
        cols += indices[:, m].astype(np.int64) * stride
        stride *= shape[m]
    return cols


def unfold(array: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` matricization of a dense array (Kolda-Bader ordering)."""
    array = np.asarray(array)
    nmodes = array.ndim
    if not 0 <= mode < nmodes:
        raise TensorFormatError(f"mode {mode} out of range for ndim={nmodes}")
    # Move `mode` to the front, then flatten remaining modes in Fortran order
    # so that earlier modes vary fastest.
    moved = np.moveaxis(array, mode, 0)
    return moved.reshape(moved.shape[0], -1, order="F")


def fold(matrix: np.ndarray, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the dense tensor from ``X_(mode)``."""
    shape = tuple(int(s) for s in shape)
    nmodes = len(shape)
    if not 0 <= mode < nmodes:
        raise TensorFormatError(f"mode {mode} out of range")
    other = [shape[m] for m in _other_modes(nmodes, mode)]
    matrix = np.asarray(matrix)
    if matrix.shape != (shape[mode], int(np.prod(other, dtype=np.int64))):
        raise TensorFormatError(
            f"matrix shape {matrix.shape} inconsistent with folding to {shape} mode {mode}"
        )
    moved = matrix.reshape([shape[mode]] + other, order="F")
    return np.moveaxis(moved, 0, mode)


def dense_from_coo(tensor: SparseTensorCOO) -> np.ndarray:
    """Convenience alias for :meth:`SparseTensorCOO.to_dense`."""
    return tensor.to_dense()
