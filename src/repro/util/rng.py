"""Reproducible random-number-generator plumbing.

All stochastic code in the library accepts a ``seed`` argument that may be an
``int``, ``numpy.random.Generator``, or ``None``; :func:`resolve_rng`
normalizes it. Deterministic child streams for parallel structures (one per
GPU, one per mode, ...) come from :func:`spawn_rngs` so that results do not
depend on iteration order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def resolve_rng(seed=None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any accepted seed-like value.

    Passing an existing ``Generator`` returns it unchanged, so callers can
    thread one RNG through a pipeline without reseeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(f"cannot interpret {type(seed).__name__!r} as a random seed")


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """Create ``n`` independent child generators from one seed-like value.

    Children are derived via ``SeedSequence.spawn`` which guarantees
    statistical independence regardless of ``n``.
    """
    if n < 0:
        raise ValueError("number of child RNGs must be non-negative")
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    elif isinstance(seed, np.random.Generator):
        # Derive a stable child sequence from the generator's own stream.
        seq = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(n)]


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalized Zipf popularity weights ``w_i ~ 1/(i+1)^exponent``.

    ``exponent == 0`` degenerates to the uniform distribution. Used by the
    synthetic dataset generators to mimic the skewed nonzero-per-index
    distributions of real tensors (e.g. popular Twitch streamers, §5.5).
    """
    if n <= 0:
        raise ValueError("need at least one index")
    if exponent < 0:
        raise ValueError("Zipf exponent must be non-negative")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks**-exponent
    w /= w.sum()
    return w


def sample_from_weights(
    rng: np.random.Generator, weights: np.ndarray, size: int
) -> np.ndarray:
    """Sample ``size`` indices according to ``weights`` (already normalized).

    Uses inverse-CDF sampling on a cumulative sum, which is O(size log n) and
    memory-friendly for the multi-million-index modes used in model-scale
    workloads.
    """
    if size < 0:
        raise ValueError("sample size must be non-negative")
    if size == 0:
        return np.empty(0, dtype=np.int64)
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0  # guard against floating-point drift
    u = rng.random(size)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)
