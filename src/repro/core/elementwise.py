"""Threadblock-level elementwise computation (Algorithm 2).

A threadblock is an ``R x P`` grid of threads: each of the P columns owns
one nonzero at a time, each of the R rows owns one rank index. The column
loads the element, gathers the input-factor rows, forms the rank-wise
Hadamard product scaled by the value, and atomically adds the result into
the output factor row.

:func:`threadblock_ec` reproduces this batching exactly (P elements per
step) so that tests can assert batch-size independence; the production
path (:class:`repro.engine.StreamingExecutor`) uses the whole-batch
segmented kernels, which are numerically identical because summation order
within a segment is preserved.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ReproError
from repro.tensor.kernels import ec_contributions, scatter_rows_atomic

__all__ = ["threadblock_ec"]


def threadblock_ec(
    indices: np.ndarray,
    values: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
    out: np.ndarray,
    *,
    threadblock_cols: int = 32,
) -> np.ndarray:
    """Execute Algorithm 2's inner loop over one ISP's element list.

    Processes elements in batches of ``threadblock_cols`` (the P columns of
    the threadblock), accumulating into ``out`` with atomic semantics. The
    ``nnz <- nnz + P`` advance of Algorithm 2 line 21 is the batch stride.
    """
    if threadblock_cols <= 0:
        raise ReproError("threadblock_cols must be positive")
    n = indices.shape[0]
    for start in range(0, n, threadblock_cols):
        stop = min(start + threadblock_cols, n)
        batch_idx = indices[start:stop]
        batch_val = values[start:stop]
        contrib = ec_contributions(batch_idx, batch_val, factors, mode)
        scatter_rows_atomic(out, batch_idx[:, mode], contrib)
    return out
