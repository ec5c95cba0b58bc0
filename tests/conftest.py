"""Shared fixtures: small deterministic tensors and factor matrices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor.coo import SparseTensorCOO
from repro.tensor.generate import lowrank_coo, random_coo, zipf_coo


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_tensor() -> SparseTensorCOO:
    """A hand-written 3-mode tensor small enough to reason about by hand."""
    indices = np.array(
        [
            [0, 0, 0],
            [0, 1, 2],
            [1, 0, 1],
            [2, 2, 0],
            [2, 2, 3],
            [3, 1, 1],
        ],
        dtype=np.int64,
    )
    values = np.array([1.0, 2.0, -0.5, 3.0, 0.25, 4.0])
    return SparseTensorCOO(indices, values, (4, 3, 4))


@pytest.fixture
def small_tensor() -> SparseTensorCOO:
    """Uniform random 3-mode tensor (a few hundred nonzeros)."""
    return random_coo((15, 12, 10), 400, seed=7)


@pytest.fixture
def skewed_tensor() -> SparseTensorCOO:
    """Zipf-skewed 3-mode tensor (exercises imbalance paths)."""
    return zipf_coo((40, 25, 30), 1500, exponents=(1.2, 0.8, 1.0), seed=11)


@pytest.fixture
def four_mode_tensor() -> SparseTensorCOO:
    return random_coo((8, 7, 6, 5), 300, seed=3)


@pytest.fixture
def five_mode_tensor() -> SparseTensorCOO:
    return zipf_coo((12, 10, 8, 4, 4), 500, exponents=1.0, seed=5)


@pytest.fixture
def fitted_tensor() -> SparseTensorCOO:
    """Low-rank-plus-noise tensor that CP-ALS can fit well."""
    return lowrank_coo((20, 16, 12), 1200, rank=4, noise=0.01, seed=21)


@pytest.fixture
def make_factors():
    """Factory fixture: deterministic factors for any shape/rank."""

    def make(shape, rank: int = 6, seed: int = 99) -> list[np.ndarray]:
        r = np.random.default_rng(seed)
        return [r.random((s, rank)) for s in shape]

    return make


@pytest.fixture
def run_shards():
    """Factory fixture: reduce only some shards of one mode into ``out``.

    The per-GPU slice of an MTTKRP — the shards' batches
    (``BatchPlan.batches_for_shards``) reduced into ``out`` by the
    executor's backend, as the executor does for the whole mode.
    """

    def run(engine, factors, mode, shard_ids, out):
        source = engine.source
        batches = engine.batch_plan(mode).batches_for_shards(shard_ids)
        return engine.backend.reduce_into(
            source.partition(mode), factors, mode, batches, out,
            attach=source.process_attach_spec(mode), kernel=engine.kernel,
        )

    return run
