"""N-mode sparse tensor in COOrdinate format.

This is the canonical in-memory representation (§2.1 of the paper): an
``(nnz, N)`` int64 index matrix plus an ``(nnz,)`` value vector. All other
formats (CSF, HiCOO, BLCO, FLYCOO) are built from it, and the partitioning
schemes of §3 operate directly on it.

The mode-sorted copies a partition plan keeps resident may store their
indices narrower: :func:`index_dtype` picks the narrowest unsigned type
that holds every extent (uint16 when no mode is longer than 65,536), so
the copies hold the same integer values in a quarter of the bytes. A
tensor with narrow indices is only ever built from a validated one (see
``SparseTensorCOO._trusted``); arithmetic on its indices must widen first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import TensorFormatError

__all__ = [
    "INDEX_DTYPES",
    "SparseTensorCOO",
    "index_dtype",
    "stable_key_order",
]

#: one radix digit: numpy's stable argsort of a uint16 array is an LSD
#: radix sort, O(n) instead of the O(n log n) merge sort int64 keys get
_DIGIT_BITS = 16


#: The index dtypes a mode copy may hold, narrowest first.
INDEX_DTYPES = tuple(np.dtype(t) for t in (np.uint16, np.uint32, np.int64))


def index_dtype(shape: Sequence[int]) -> np.dtype:
    """The narrowest index dtype that holds every coordinate of ``shape``.

    uint16 when ``max(shape) <= 2**16``, uint32 when ``max(shape) <=
    2**32``, int64 otherwise: coordinates lie in ``[0, extent)``, so an
    extent of exactly ``2**16`` still fits uint16. Narrowing keeps every
    integer value; only the storage width changes.
    """
    largest = max((int(s) for s in shape), default=1)
    for dtype in INDEX_DTYPES[:-1]:
        if largest <= int(np.iinfo(dtype).max) + 1:
            return dtype
    return INDEX_DTYPES[-1]


def stable_key_order(keys: np.ndarray, extent: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, extent)``.

    A stable LSD radix sort over 16-bit digits: one pass when
    ``extent <= 2**16``, else ``ceil(bits / 16)`` passes, each a stable argsort of one uint16 digit
    in the order the lower digits left. Stable passes keep equal keys in
    input order, so the permutation is exactly the stable argsort's, which
    keeps the mode-sorted caches byte-identical. Keys outside
    ``[0, extent)`` are not checked (callers hold validated indices).
    """
    keys = np.asarray(keys)
    bits = max(1, (int(extent) - 1).bit_length())
    order = None
    for shift in range(0, bits, _DIGIT_BITS):
        digit = (keys >> shift if shift else keys).astype(np.uint16)
        if order is None:
            order = np.argsort(digit, kind="stable")
        else:
            order = order[np.argsort(digit[order], kind="stable")]
    return order


@dataclass(frozen=True)
class SparseTensorCOO:
    """An N-mode sparse tensor holding only nonzero elements.

    Parameters
    ----------
    indices:
        ``(nnz, nmodes)`` array of int64 coordinates; row *i* holds the
        per-mode positions of nonzero element *i* (``0 <= idx < shape[m]``).
    values:
        ``(nnz,)`` float array of element values.
    shape:
        Extent of each mode (``I_0, ..., I_{N-1}`` in paper notation).

    The structure is immutable; transforming operations return new tensors
    that share (never mutate) the underlying arrays where possible.
    """

    indices: np.ndarray
    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        values = np.asarray(self.values)
        if indices.ndim != 2:
            raise TensorFormatError(
                f"indices must be 2-D (nnz, nmodes); got ndim={indices.ndim}"
            )
        if values.ndim != 1:
            raise TensorFormatError("values must be 1-D")
        if indices.shape[0] != values.shape[0]:
            raise TensorFormatError(
                f"indices rows ({indices.shape[0]}) != values length ({values.shape[0]})"
            )
        shape = tuple(int(s) for s in self.shape)
        if len(shape) != indices.shape[1]:
            raise TensorFormatError(
                f"shape has {len(shape)} modes but indices have {indices.shape[1]}"
            )
        if any(s <= 0 for s in shape):
            raise TensorFormatError(f"all mode sizes must be positive; got {shape}")
        if indices.size:
            lo = indices.min(axis=0)
            hi = indices.max(axis=0)
            if (lo < 0).any():
                raise TensorFormatError("negative index encountered")
            over = [m for m in range(len(shape)) if hi[m] >= shape[m]]
            if over:
                raise TensorFormatError(
                    f"index out of range in mode(s) {over}: max={hi.tolist()}, shape={shape}"
                )
        if not np.issubdtype(values.dtype, np.floating):
            values = values.astype(np.float64)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "shape", shape)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored nonzero elements (|T| in paper notation)."""
        return int(self.values.shape[0])

    @property
    def nmodes(self) -> int:
        """Number of tensor modes (N)."""
        return len(self.shape)

    @property
    def density(self) -> float:
        """nnz / product(shape); uses float to avoid overflow on huge shapes."""
        total = float(np.prod([float(s) for s in self.shape]))
        return self.nnz / total if total > 0 else 0.0

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the functional representation."""
        return int(self.indices.nbytes + self.values.nbytes)

    def norm(self) -> float:
        """Frobenius norm of the stored element list.

        Equals the tensor's Frobenius norm when coordinates are unique (the
        canonical form produced by :meth:`deduplicated`); with duplicate
        coordinates the mathematical tensor sums them first, so call
        ``t.deduplicated().norm()`` in that case.
        """
        return float(np.sqrt(np.sum(np.square(self.values, dtype=np.float64))))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def sorted_by_mode(self, mode: int) -> "SparseTensorCOO":
        """Return a copy with elements stably ordered by their ``mode`` index.

        The AMPED sharding scheme (§3.1.1) relies on this: after sorting by
        the output-mode index, every tensor shard is a contiguous slice.
        """
        order = self.mode_order(mode)
        # np.take along axis 0 copies whole rows; fancy indexing of the
        # 2-D block takes a per-element path that is 3-5x slower
        return self._trusted(
            np.take(self.indices, order, axis=0), self.values[order]
        )

    def mode_order(self, mode: int) -> np.ndarray:
        """Permutation stably sorting elements by their ``mode`` index."""
        mode = self._check_mode(mode)
        return stable_key_order(self.indices[:, mode], self.shape[mode])

    def sorted_lexicographic(self, mode_order: Sequence[int]) -> "SparseTensorCOO":
        """Sort elements lexicographically by ``mode_order`` (CSF build order)."""
        order = self.lexicographic_order(mode_order)
        return SparseTensorCOO(self.indices[order], self.values[order], self.shape)

    def lexicographic_order(self, mode_order: Sequence[int]) -> np.ndarray:
        """Permutation sorting elements lexicographically by ``mode_order``."""
        mode_order = [self._check_mode(m) for m in mode_order]
        if sorted(mode_order) != list(range(self.nmodes)):
            raise TensorFormatError(
                f"mode order {mode_order} is not a permutation of 0..{self.nmodes - 1}"
            )
        # np.lexsort keys: last key is primary.
        keys = tuple(self.indices[:, m] for m in reversed(mode_order))
        return np.lexsort(keys)

    def permuted_modes(self, perm: Sequence[int]) -> "SparseTensorCOO":
        """Reorder the modes themselves (a transpose of the data cube)."""
        perm = [self._check_mode(m) for m in perm]
        if sorted(perm) != list(range(self.nmodes)):
            raise TensorFormatError(f"{perm} is not a permutation of modes")
        return SparseTensorCOO(
            self.indices[:, perm],
            self.values,
            tuple(self.shape[m] for m in perm),
        )

    def select(self, mask_or_index: np.ndarray) -> "SparseTensorCOO":
        """Subset of elements chosen by a boolean mask or integer index array."""
        sel = np.asarray(mask_or_index)
        return SparseTensorCOO(self.indices[sel], self.values[sel], self.shape)

    def deduplicated(self) -> "SparseTensorCOO":
        """Sum values of duplicate coordinates into a single element.

        Real datasets (and our random generators) can emit repeated
        coordinates; MTTKRP is linear in the values, so summing duplicates is
        the standard normalization (FROSTT tensors are pre-deduplicated).
        """
        if self.nnz == 0:
            return self
        order = self.lexicographic_order(list(range(self.nmodes)))
        idx = self.indices[order]
        val = self.values[order]
        new_group = np.empty(idx.shape[0], dtype=bool)
        new_group[0] = True
        np.any(idx[1:] != idx[:-1], axis=1, out=new_group[1:])
        starts = np.flatnonzero(new_group)
        summed = np.add.reduceat(val, starts)
        return SparseTensorCOO(idx[starts], summed, self.shape)

    def astype(self, dtype) -> "SparseTensorCOO":
        """Return a copy with values cast to ``dtype``."""
        return SparseTensorCOO(self.indices, self.values.astype(dtype), self.shape)

    def concatenated(self, other: "SparseTensorCOO") -> "SparseTensorCOO":
        """Concatenate element lists of two tensors with identical shape."""
        if other.shape != self.shape:
            raise TensorFormatError(
                f"cannot concatenate tensors of shape {self.shape} and {other.shape}"
            )
        return SparseTensorCOO(
            np.concatenate([self.indices, other.indices], axis=0),
            np.concatenate([self.values, other.values]),
            self.shape,
        )

    # ------------------------------------------------------------------
    # Interop / comparison
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize the full dense array (small tensors only)."""
        total = np.prod(self.shape, dtype=np.int64)
        if total > 50_000_000:
            raise TensorFormatError(
                f"refusing to densify tensor with {total} entries"
            )
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        np.add.at(dense, tuple(self.indices.T), self.values)
        return dense

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "SparseTensorCOO":
        """Build a COO tensor from a dense array, dropping exact zeros."""
        array = np.asarray(array)
        coords = np.argwhere(array != 0)
        vals = array[tuple(coords.T)] if coords.size else np.empty(0, array.dtype)
        return cls(coords.astype(np.int64), np.asarray(vals, dtype=np.float64), array.shape)

    def allclose(self, other: "SparseTensorCOO", **kw) -> bool:
        """Structural + numerical equality after canonical ordering/dedup."""
        if self.shape != other.shape:
            return False
        a, b = self.deduplicated(), other.deduplicated()
        a = a.sorted_lexicographic(range(a.nmodes))
        b = b.sorted_lexicographic(range(b.nmodes))
        return (
            a.nnz == b.nnz
            and bool(np.array_equal(a.indices, b.indices))
            and bool(np.allclose(a.values, b.values, **kw))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseTensorCOO(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.values.dtype})"
        )

    # ------------------------------------------------------------------
    def _trusted(self, indices: np.ndarray, values: np.ndarray) -> "SparseTensorCOO":
        """Same-shape tensor from a row permutation of this one's arrays,
        or from its index block cast to a dtype that holds every extent
        (at least as wide as :func:`index_dtype` of the shape).

        Skips ``__post_init__``: permuted rows of a validated tensor are
        valid by construction, and so are the same values in a dtype that
        holds every extent; re-checking every index costs a full min/max
        pass per mode copy (and would widen narrow indices back to int64).
        """
        out = object.__new__(SparseTensorCOO)
        object.__setattr__(out, "indices", indices)
        object.__setattr__(out, "values", values)
        object.__setattr__(out, "shape", self.shape)
        return out

    def _check_mode(self, mode: int) -> int:
        mode = int(mode)
        if not 0 <= mode < self.nmodes:
            raise TensorFormatError(
                f"mode {mode} out of range for {self.nmodes}-mode tensor"
            )
        return mode
