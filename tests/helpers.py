"""Test helpers importable from any test module."""

from __future__ import annotations

import numpy as np


def make_factors(shape, rank: int = 6, seed: int = 99) -> list[np.ndarray]:
    """Deterministic random factor matrices for the given tensor shape."""
    rng = np.random.default_rng(seed)
    return [rng.random((s, rank)) for s in shape]


def force_cpus(monkeypatch, n: int) -> None:
    """Pretend this host has ``n`` usable CPUs, so the v2 cache's
    compression and decode pools are sized the same on every host."""
    from repro.tensor import io_v2

    monkeypatch.setattr(
        io_v2.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False
    )
