"""Tests for the AMPED functional executor."""

import numpy as np
import pytest

from repro.core.amped import AmpedMTTKRP
from repro.core.config import AmpedConfig
from repro.engine.source import InMemorySource
from repro.errors import ReproError
from repro.simgpu.presets import paper_platform
from repro.tensor.reference import mttkrp_coo_reference


@pytest.fixture
def executor(skewed_tensor):
    return AmpedMTTKRP(
        skewed_tensor,
        AmpedConfig(n_gpus=4, rank=6, shards_per_gpu=3),
        name="skewed",
    )


class TestFunctional:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_mttkrp_matches_reference(self, executor, skewed_tensor, make_factors, mode):
        factors = make_factors(skewed_tensor.shape)
        got = executor.mttkrp(factors, mode)
        assert np.allclose(got, mttkrp_coo_reference(skewed_tensor, factors, mode))

    def test_all_modes(self, executor, skewed_tensor, make_factors):
        factors = make_factors(skewed_tensor.shape)
        outs = executor.mttkrp_all_modes(factors)
        assert len(outs) == 3
        for mode, out in enumerate(outs):
            assert np.allclose(
                out, mttkrp_coo_reference(skewed_tensor, factors, mode)
            )

    def test_rank_follows_factors_not_config(self, executor, skewed_tensor, make_factors):
        factors = make_factors(skewed_tensor.shape, rank=3)
        out = executor.mttkrp(factors, 0)
        assert out.shape == (skewed_tensor.shape[0], 3)


class TestConstruction:
    def test_platform_mismatch_rejected(self, small_tensor):
        with pytest.raises(ReproError):
            AmpedMTTKRP(
                small_tensor,
                AmpedConfig(n_gpus=4),
                platform=paper_platform(2),
            )

    def test_workload_derived(self, executor, skewed_tensor):
        assert executor.workload.nnz == skewed_tensor.nnz
        assert executor.workload.n_gpus == 4

    def test_resident_tensor_planned_as_in_memory_source(
        self, executor, skewed_tensor
    ):
        """A resident tensor runs from an InMemorySource over a valid
        plan, and the executor keeps the caller's tensor for fits."""
        assert isinstance(executor.source, InMemorySource)
        assert executor.tensor is skewed_tensor
        assert executor.partition_plan is executor.source.partition_plan()
        executor.partition_plan.validate()
        assert executor.cache_codec_ratio is None


class TestSimulation:
    def test_simulate_is_repeatable(self, executor):
        r1 = executor.simulate()
        r2 = executor.simulate()
        assert r1.total_time == pytest.approx(r2.total_time)

    def test_single_gpu_has_no_p2p(self, small_tensor):
        from repro.simgpu.trace import Category

        ex = AmpedMTTKRP(small_tensor, AmpedConfig(n_gpus=1, shards_per_gpu=2))
        res = ex.simulate()
        assert res.ok
        assert res.timeline.busy_time(category=Category.P2P) == 0.0
