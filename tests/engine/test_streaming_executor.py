"""Equivalence matrix + behavior tests for the streaming executor.

The matrix required by the engine's contract: for every
``batch_size in {1, 7, nnz}`` x ``(backend, workers) in {(serial, 1),
(thread, 4)}`` x every mode,
``StreamingExecutor`` equals ``mttkrp_coo_reference``. Within the engine
family the outputs are additionally **bit-identical** (segment-aligned
batches never re-associate a row's reduction); against the COO reference —
which sums strictly element-by-element while the production kernel reduces
segments pairwise — equality is to a 1e-9 tolerance (measured worst case is
~1e-11 relative, a property of the seed kernel, not of batching).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.amped import AmpedMTTKRP
from repro.core.config import AmpedConfig
from repro.engine import StreamingExecutor
from repro.errors import ReproError
from repro.partition.plan import build_partition_plan
from repro.tensor.reference import mttkrp_coo_reference

REF_RTOL = 1e-9
REF_ATOL = 1e-12


@pytest.fixture(scope="module")
def skewed_case():
    from repro.tensor.generate import zipf_coo

    tensor = zipf_coo((40, 25, 30), 1500, exponents=(1.2, 0.8, 1.0), seed=11)
    rng = np.random.default_rng(99)
    factors = [rng.random((s, 6)) for s in tensor.shape]
    plan = build_partition_plan(tensor, 4, shards_per_gpu=4)
    return tensor, factors, plan


@pytest.fixture(scope="module")
def eager_outputs(skewed_case):
    """Canonical bits: the engine at eager (whole-shard) granularity."""
    tensor, factors, plan = skewed_case
    engine = StreamingExecutor(plan)
    return [engine.mttkrp(factors, m) for m in range(tensor.nmodes)]


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("batch_size", ["one", "seven", "nnz"])
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 4)])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_reference_and_eager_bits(
        self, skewed_case, eager_outputs, batch_size, backend, workers, mode
    ):
        tensor, factors, plan = skewed_case
        b = {"one": 1, "seven": 7, "nnz": tensor.nnz}[batch_size]
        engine = StreamingExecutor(
            plan, batch_size=b, backend=backend, workers=workers
        )
        got = engine.mttkrp(factors, mode)
        want = mttkrp_coo_reference(tensor, factors, mode)
        assert np.allclose(got, want, rtol=REF_RTOL, atol=REF_ATOL)
        assert np.array_equal(got, eager_outputs[mode])

    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 4)])
    def test_four_mode_tensor(
        self, four_mode_tensor, make_factors, backend, workers
    ):
        factors = make_factors(four_mode_tensor.shape, rank=3)
        plan = build_partition_plan(four_mode_tensor, 2, shards_per_gpu=2)
        engine = StreamingExecutor(
            plan, batch_size=5, backend=backend, workers=workers
        )
        for mode in range(four_mode_tensor.nmodes):
            assert np.allclose(
                engine.mttkrp(factors, mode),
                mttkrp_coo_reference(four_mode_tensor, factors, mode),
                rtol=REF_RTOL,
                atol=REF_ATOL,
            )


class TestAmpedIntegration:
    @pytest.mark.parametrize(
        "batch_size,backend,workers",
        [(None, "serial", 1), (16, "serial", 1), (16, "thread", 3)],
    )
    def test_amped_config_routes_through_engine(
        self, skewed_tensor, make_factors, batch_size, backend, workers
    ):
        factors = make_factors(skewed_tensor.shape)
        cfg = AmpedConfig(
            n_gpus=2, rank=6, shards_per_gpu=3, batch_size=batch_size,
            backend=backend, workers=workers,
        )
        ex = AmpedMTTKRP(skewed_tensor, cfg)
        assert ex.engine.batch_size == batch_size
        assert ex.engine.backend.name == backend
        assert ex.engine.backend.workers == workers
        baseline = AmpedMTTKRP(
            skewed_tensor, AmpedConfig(n_gpus=2, rank=6, shards_per_gpu=3)
        )
        for mode in range(skewed_tensor.nmodes):
            assert np.array_equal(
                ex.mttkrp(factors, mode), baseline.mttkrp(factors, mode)
            )


class TestExecutorBehavior:
    def test_shard_restriction_partitions_output(self, skewed_case, run_shards):
        """Per-GPU shard subsets sum to the full result (all-gather premise)."""
        tensor, factors, plan = skewed_case
        engine = StreamingExecutor(plan, batch_size=64)
        mode = 1
        total = np.zeros((tensor.shape[mode], 6))
        for g in range(plan.n_gpus):
            run_shards(
                engine, factors, mode, plan.shards_for_gpu(mode, g), total
            )
        assert np.array_equal(total, engine.mttkrp(factors, mode))

    def test_empty_shard_subset(self, skewed_case, run_shards):
        tensor, factors, plan = skewed_case
        engine = StreamingExecutor(plan)
        assert engine.batch_plan(0).batches_for_shards([]) == []
        out = np.zeros((tensor.shape[0], 6))
        run_shards(engine, factors, 0, [], out)
        assert not out.any()

    def test_batch_plans_cached(self, skewed_case):
        _, _, plan = skewed_case
        engine = StreamingExecutor(plan, batch_size=10)
        assert engine.batch_plan(0) is engine.batch_plan(0)
        assert engine.n_batches(0) == len(engine.batch_plan(0).batches)

    def test_mode_out_of_range(self, skewed_case):
        _, factors, plan = skewed_case
        with pytest.raises(ReproError):
            StreamingExecutor(plan).batch_plan(5)


class TestValidation:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_bad_batch_size(self, skewed_case, batch_size):
        _, _, plan = skewed_case
        with pytest.raises(ReproError, match="batch_size"):
            StreamingExecutor(plan, batch_size=batch_size)

    @pytest.mark.parametrize("workers", [0, -2, 100_000])
    def test_bad_workers(self, skewed_case, workers):
        _, _, plan = skewed_case
        with pytest.raises(ReproError, match="workers"):
            StreamingExecutor(plan, workers=workers)
