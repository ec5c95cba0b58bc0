"""Scaled-down functional tensors from dataset profiles.

The scaling rule keeps each dataset's character: small modes (like Patents'
46 years) are preserved exactly, large modes shrink proportionally with the
nonzero count but never below a floor, and per-mode skew exponents carry
over. The result is a materialized tensor whose partitioning and balance
behaviour mirrors the full dataset at a size NumPy can execute exactly.
"""

from __future__ import annotations

from repro.datasets.profiles import DatasetProfile
from repro.errors import ReproError
from repro.tensor.coo import SparseTensorCOO
from repro.tensor.generate import zipf_coo

__all__ = ["scaled_shape", "materialize"]

#: modes at or below this extent are preserved exactly when scaling
SMALL_MODE_THRESHOLD = 1024
#: scaled large modes never shrink below this extent
LARGE_MODE_FLOOR = 512


def scaled_shape(profile: DatasetProfile, target_nnz: int) -> tuple[int, ...]:
    """Shape for a scaled-down instance carrying ``target_nnz`` nonzeros."""
    if target_nnz <= 0:
        raise ReproError("target_nnz must be positive")
    factor = target_nnz / profile.nnz
    out = []
    for dim in profile.shape:
        if dim <= SMALL_MODE_THRESHOLD:
            out.append(dim)
        else:
            out.append(max(LARGE_MODE_FLOOR, int(round(dim * factor))))
    return tuple(out)


def materialize(
    profile: DatasetProfile,
    target_nnz: int,
    *,
    seed=None,
) -> SparseTensorCOO:
    """Generate the scaled functional tensor for ``profile``.

    Coordinates are Zipf-sampled per mode with the profile's exponents and
    deduplicated, so the returned nnz can be slightly below ``target_nnz``.
    """
    shape = scaled_shape(profile, target_nnz)
    return zipf_coo(
        shape,
        target_nnz,
        exponents=profile.skew,
        seed=seed,
    )

