"""Every baseline's functional MTTKRP must agree with the reference oracle."""

import numpy as np
import pytest

from repro.baselines import (
    BLCOBackend,
    EqualNnzBackend,
    FlyCOOGPUBackend,
    HiCOOGPUBackend,
    MMCSFBackend,
)
from repro.errors import ReproError, UnsupportedTensorError
from repro.tensor.reference import mttkrp_coo_reference

BACKENDS_3MODE = [
    BLCOBackend,
    MMCSFBackend,
    HiCOOGPUBackend,
    FlyCOOGPUBackend,
    EqualNnzBackend,
]


@pytest.mark.parametrize("backend_cls", BACKENDS_3MODE)
class TestAgainstReference:
    def test_all_modes_match(self, backend_cls, skewed_tensor, make_factors):
        backend = backend_cls(skewed_tensor, rank=6)
        factors = make_factors(skewed_tensor.shape)
        outs = backend.mttkrp_all_modes(factors)
        for mode, out in enumerate(outs):
            ref = mttkrp_coo_reference(skewed_tensor, factors, mode)
            assert np.allclose(out, ref), f"{backend_cls.name} mode {mode}"

    def test_small_uniform_tensor(self, backend_cls, small_tensor, make_factors):
        backend = backend_cls(small_tensor, rank=6)
        factors = make_factors(small_tensor.shape)
        got = backend.mttkrp(factors, 1)
        assert np.allclose(got, mttkrp_coo_reference(small_tensor, factors, 1))


class TestModeSupportLimits:
    def test_mm_csf_rejects_five_modes(self, five_mode_tensor):
        with pytest.raises(UnsupportedTensorError, match="modes"):
            MMCSFBackend(five_mode_tensor, rank=4)

    def test_hicoo_rejects_five_modes(self, five_mode_tensor):
        with pytest.raises(UnsupportedTensorError, match="modes"):
            HiCOOGPUBackend(five_mode_tensor, rank=4)

    def test_mm_csf_accepts_four_modes(self, four_mode_tensor, make_factors):
        backend = MMCSFBackend(four_mode_tensor, rank=4)
        factors = make_factors(four_mode_tensor.shape, rank=4)
        got = backend.mttkrp(factors, 2)
        assert np.allclose(
            got, mttkrp_coo_reference(four_mode_tensor, factors, 2)
        )

    def test_blco_and_flycoo_accept_five_modes(
        self, five_mode_tensor, make_factors
    ):
        factors = make_factors(five_mode_tensor.shape, rank=3)
        for cls in (BLCOBackend, FlyCOOGPUBackend):
            backend = cls(five_mode_tensor, rank=3)
            outs = backend.mttkrp_all_modes(factors)
            for mode, out in enumerate(outs):
                ref = mttkrp_coo_reference(five_mode_tensor, factors, mode)
                assert np.allclose(out, ref), f"{cls.name} mode {mode}"


class TestConstruction:
    def test_needs_tensor_or_workload(self):
        with pytest.raises(ReproError):
            BLCOBackend()

    def test_functional_without_tensor_rejected(self, skewed_tensor, make_factors):
        from repro.core.config import AmpedConfig
        from repro.core.workload import TensorWorkload
        from repro.engine.source import InMemorySource
        from repro.partition.plan import build_partition_plan
        from repro.simgpu.kernel import KernelCostModel

        plan = build_partition_plan(skewed_tensor, 1, shards_per_gpu=2)
        wl = TensorWorkload.from_source(
            InMemorySource(plan), KernelCostModel(), rank=6
        )
        backend = BLCOBackend(workload=wl, rank=6)
        with pytest.raises(ReproError, match="tensor"):
            backend.mttkrp(make_factors(skewed_tensor.shape), 0)

    def test_invalid_rank(self, skewed_tensor):
        with pytest.raises(ReproError):
            BLCOBackend(skewed_tensor, rank=0)

    def test_equal_nnz_gpu_count(self, skewed_tensor):
        b = EqualNnzBackend(skewed_tensor, n_gpus=3)
        assert b.platform.n_gpus == 3
        assert b.partition.n_parts == 3
