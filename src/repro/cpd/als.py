"""CP-ALS: alternating least squares decomposition over any MTTKRP backend.

Each sweep updates every factor matrix in mode order (Equation 1):

    Y_d <- mttkrp(X, factors, d) @ pinv( hadamard_{w != d}(Y_w^T Y_w) )

followed by column normalization into the weight vector λ. The MTTKRP is
delegated to a pluggable backend — :class:`repro.core.AmpedMTTKRP`, any
baseline, or the plain COO reference — so decomposition quality tests
double as end-to-end backend validation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.cpd.ktensor import KruskalTensor
from repro.cpd.init import init_factors
from repro.cpd.norms import normalize_columns
from repro.errors import ConvergenceError, ReproError
from repro.tensor.coo import SparseTensorCOO
from repro.tensor.reference import mttkrp_coo_reference

__all__ = ["cp_als", "ALSResult", "MTTKRPFn"]

# An MTTKRP callable: (factors, mode) -> (I_mode, R) matrix.
MTTKRPFn = Callable[[Sequence[np.ndarray], int], np.ndarray]


@dataclass
class ALSResult:
    """Outcome of a CP-ALS run."""

    model: KruskalTensor
    fits: list[float] = field(default_factory=list)
    n_iters: int = 0
    converged: bool = False
    wall_seconds: float = 0.0

    @property
    def final_fit(self) -> float:
        return self.fits[-1] if self.fits else float("nan")


def cp_als(
    tensor: SparseTensorCOO,
    rank: int,
    *,
    mttkrp: MTTKRPFn | None = None,
    factors: Sequence[np.ndarray] | None = None,
    n_iters: int = 25,
    tol: float = 1e-5,
    init: str = "random",
    seed=None,
    callback: Callable[[int, float], bool] | None = None,
) -> ALSResult:
    """Run CP-ALS; returns the fitted model and the per-iteration fits.

    The per-sweep fit ``1 - ||X - M|| / ||X||`` never reads the nonzeros:
    ``<X, M> = Σ_r λ_r Σ_i (M_N ⊙ A_N)_ir`` comes from the sweep's last
    MTTKRP ``M_N`` (taken with every other mode's final factors) and the
    last factor ``A_N``, ``||M||`` from :meth:`KruskalTensor.norm` of the
    sweep's model, and ``||X||`` from one ``tensor.norm()`` before the first
    sweep. ``||M||`` is summed over the very arrays and in the very order
    that :meth:`KruskalTensor.fit_sparse` sums the returned model's norm,
    so the reported fit is that of the returned model even when degenerate
    components with large, cancelling weights leave ``||M||²`` with
    round-off far above machine precision.
    Each sweep therefore touches the tensor only through the MTTKRP
    backend, which keeps an out-of-core run at its streamed residency.

    Parameters
    ----------
    mttkrp:
        MTTKRP backend; defaults to the COO reference implementation.
    factors:
        Optional initial factors (overrides ``init``/``seed``).
    tol:
        Convergence threshold on the change in fit between sweeps.
    callback:
        Optional per-sweep observer ``callback(iteration, fit) -> bool``,
        called after each sweep's fit is computed. Returning ``True``
        stops the run cooperatively at the sweep boundary (the factors of
        completed sweeps are returned, ``converged`` stays whatever the
        tolerance said) — the hook the decomposition service uses for
        streaming progress and mid-run cancellation without ever tearing
        down a sweep half way.
    """
    if rank <= 0:
        raise ReproError("rank must be positive")
    if n_iters <= 0:
        raise ReproError("n_iters must be positive")
    if mttkrp is None:
        mttkrp = lambda f, m: mttkrp_coo_reference(tensor, f, m)  # noqa: E731
    if factors is None:
        mats = init_factors(tensor, rank, method=init, seed=seed)
    else:
        mats = [np.array(f, dtype=np.float64) for f in factors]
        if len(mats) != tensor.nmodes:
            raise ReproError("need one initial factor per mode")
    weights = np.ones(rank, dtype=np.float64)
    xnorm = tensor.norm()
    if xnorm == 0.0:
        raise ConvergenceError("cannot decompose an all-zero tensor")

    grams = [f.T @ f for f in mats]
    fits: list[float] = []
    converged = False
    t0 = time.perf_counter()
    for it in range(n_iters):
        for mode in range(tensor.nmodes):
            m_mat = mttkrp(mats, mode)
            v = np.ones((rank, rank), dtype=np.float64)
            for w in range(tensor.nmodes):
                if w != mode:
                    v *= grams[w]
            # Solve A_d V = M with a pseudo-inverse for rank-deficient V.
            updated = m_mat @ np.linalg.pinv(v)
            normalized, lam = normalize_columns(updated)
            mats[mode] = normalized
            weights = lam
            grams[mode] = normalized.T @ normalized
        # Fit from the last mode's MTTKRP and the model norm (see
        # docstring), read before the next mttkrp call may reuse its output
        # buffer.
        inner = float(weights @ np.einsum("ir,ir->r", m_mat, mats[-1]))
        model = KruskalTensor(weights, tuple(mats)).arrange()
        model_norm = model.norm()
        residual_sq = max(
            xnorm * xnorm - 2.0 * inner + model_norm * model_norm, 0.0
        )
        fit = 1.0 - np.sqrt(residual_sq) / xnorm
        if not np.isfinite(fit):
            raise ConvergenceError(f"non-finite fit at iteration {it}")
        fits.append(float(fit))
        if it > 0 and abs(fits[-1] - fits[-2]) < tol:
            converged = True
            break
        if callback is not None and callback(it, fits[-1]):
            break
    wall = time.perf_counter() - t0
    return ALSResult(
        model=model,
        fits=fits,
        n_iters=len(fits),
        converged=converged,
        wall_seconds=wall,
    )
