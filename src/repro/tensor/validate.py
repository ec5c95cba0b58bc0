"""Structural diagnostics for sparse tensors.

Loading real-world tensor files surfaces the usual defects — duplicate
coordinates, empty slices, degenerate modes. :func:`diagnose` summarizes a
tensor's structural health; :func:`require_canonical` is the strict gate
formats use before building (sorted + unique coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TensorFormatError
from repro.tensor.coo import SparseTensorCOO
from repro.tensor.stats import mode_histogram

__all__ = ["TensorDiagnostics", "diagnose", "require_canonical"]


@dataclass(frozen=True)
class TensorDiagnostics:
    """Structural health summary of one sparse tensor."""

    nnz: int
    duplicate_coordinates: int
    explicit_zeros: int
    empty_slices: tuple[int, ...]  # per mode: indices with no nonzeros
    degenerate_modes: tuple[int, ...]  # modes of extent 1
    sorted_by_mode: tuple[bool, ...]

    @property
    def canonical(self) -> bool:
        """True when the element list is duplicate- and zero-free."""
        return self.duplicate_coordinates == 0 and self.explicit_zeros == 0

    def summary(self) -> str:
        lines = [f"nnz={self.nnz}, canonical={self.canonical}"]
        if self.duplicate_coordinates:
            lines.append(f"  duplicate coordinates: {self.duplicate_coordinates}")
        if self.explicit_zeros:
            lines.append(f"  explicit zeros stored: {self.explicit_zeros}")
        for m, empty in enumerate(self.empty_slices):
            if empty:
                lines.append(f"  mode {m}: {empty} empty indices")
        if self.degenerate_modes:
            lines.append(f"  degenerate (extent-1) modes: {list(self.degenerate_modes)}")
        return "\n".join(lines)


def diagnose(tensor: SparseTensorCOO) -> TensorDiagnostics:
    """Compute structural diagnostics (non-destructive)."""
    nnz = tensor.nnz
    duplicates = nnz - tensor.deduplicated().nnz if nnz else 0
    zeros = int(np.count_nonzero(tensor.values == 0.0))
    empty = tuple(
        int(np.count_nonzero(mode_histogram(tensor, m) == 0))
        for m in range(tensor.nmodes)
    )
    degenerate = tuple(m for m, s in enumerate(tensor.shape) if s == 1)
    # widen first: np.diff of an unsigned (narrow mode-copy) column wraps
    sortedness = tuple(
        bool(np.all(np.diff(tensor.indices[:, m].astype(np.int64)) >= 0))
        if nnz else True
        for m in range(tensor.nmodes)
    )
    return TensorDiagnostics(
        nnz=nnz,
        duplicate_coordinates=int(duplicates),
        explicit_zeros=zeros,
        empty_slices=empty,
        degenerate_modes=degenerate,
        sorted_by_mode=sortedness,
    )


def require_canonical(tensor: SparseTensorCOO) -> SparseTensorCOO:
    """Return the tensor if canonical; raise with diagnostics otherwise."""
    diag = diagnose(tensor)
    if not diag.canonical:
        raise TensorFormatError(
            "tensor is not canonical:\n" + diag.summary()
        )
    return tensor
