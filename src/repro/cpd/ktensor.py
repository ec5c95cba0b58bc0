"""Kruskal tensors: the CP model ``X ≈ Σ_r λ_r a_r ∘ b_r ∘ c_r ...``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import TensorFormatError
from repro.tensor.coo import SparseTensorCOO
from repro.tensor.khatri_rao import khatri_rao

__all__ = ["KruskalTensor"]


@dataclass(frozen=True)
class KruskalTensor:
    """A rank-R CP model: per-component weights and factor matrices."""

    weights: np.ndarray  # (R,)
    factors: tuple[np.ndarray, ...]  # each (I_m, R)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        factors = tuple(np.asarray(f, dtype=np.float64) for f in self.factors)
        if weights.ndim != 1:
            raise TensorFormatError("weights must be a vector")
        if not factors:
            raise TensorFormatError("need at least one factor matrix")
        rank = weights.shape[0]
        for m, f in enumerate(factors):
            if f.ndim != 2 or f.shape[1] != rank:
                raise TensorFormatError(
                    f"factor {m} must be a matrix with {rank} columns"
                )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "factors", factors)

    @property
    def rank(self) -> int:
        return int(self.weights.shape[0])

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def nmodes(self) -> int:
        return len(self.factors)

    # ------------------------------------------------------------------
    def full(self) -> np.ndarray:
        """Dense reconstruction (small shapes only)."""
        total = int(np.prod(self.shape, dtype=np.int64))
        if total > 50_000_000:
            raise TensorFormatError("refusing to densify a huge Kruskal tensor")
        kr = khatri_rao(list(self.factors))  # rows: first mode fastest
        vec = kr @ self.weights
        return vec.reshape(self.shape, order="F")

    def values_at(self, indices: np.ndarray) -> np.ndarray:
        """Model values at COO coordinates (vectorized).

        A standalone/oracle path: ``cp_als`` never calls it, since it
        allocates ``nnz × rank`` outside the streaming engine.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[1] != self.nmodes:
            raise TensorFormatError("indices shape inconsistent with model")
        acc = np.broadcast_to(self.weights, (indices.shape[0], self.rank)).copy()
        for m, f in enumerate(self.factors):
            acc *= f[indices[:, m]]
        return acc.sum(axis=1)

    def norm(self) -> float:
        """Frobenius norm of the model via the cross-Gram identity."""
        gram = np.outer(self.weights, self.weights)
        for f in self.factors:
            gram *= f.T @ f
        return float(np.sqrt(max(gram.sum(), 0.0)))

    def innerprod_sparse(self, tensor: SparseTensorCOO) -> float:
        """<X, M> for sparse X: sum over nonzeros of val * model value.

        A standalone/oracle path: ``cp_als`` takes <X, M> from its last
        MTTKRP instead of this second pass over every nonzero.
        """
        if tensor.shape != self.shape:
            raise TensorFormatError(
                f"tensor shape {tensor.shape} != model shape {self.shape}"
            )
        if tensor.nnz == 0:
            return 0.0
        return float(np.dot(tensor.values, self.values_at(tensor.indices)))

    def fit_sparse(self, tensor: SparseTensorCOO, *, tensor_norm: float | None = None) -> float:
        """CP fit: ``1 - ||X - M||_F / ||X||_F`` computed without densifying.

        Uses ``||X - M||² = ||X||² - 2<X, M> + ||M||²``. ``tensor_norm`` can
        be precomputed and passed to avoid re-reducing the values each call.
        A standalone/oracle path: ``cp_als`` computes the same fit from its
        sweep's last MTTKRP and Grams and never calls this.
        """
        xn = tensor.norm() if tensor_norm is None else float(tensor_norm)
        if xn == 0.0:
            raise TensorFormatError("fit undefined for an all-zero tensor")
        mn = self.norm()
        inner = self.innerprod_sparse(tensor)
        residual_sq = max(xn * xn - 2.0 * inner + mn * mn, 0.0)
        return 1.0 - np.sqrt(residual_sq) / xn

    def arrange(self) -> "KruskalTensor":
        """Canonical ordering: components sorted by descending weight."""
        order = np.argsort(self.weights, kind="stable")[::-1]
        return KruskalTensor(
            self.weights[order], tuple(f[:, order] for f in self.factors)
        )
