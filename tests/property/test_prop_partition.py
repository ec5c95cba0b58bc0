"""Property-based tests for partitioning invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.balance import assign_lpt, bin_loads
from repro.partition.plan import build_partition_plan
from repro.partition.sharding import shard_mode
from repro.tensor.generate import zipf_coo


@st.composite
def tensors_and_params(draw):
    nmodes = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(2, 30)) for _ in range(nmodes))
    nnz = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**31 - 1))
    exponent = draw(st.floats(0.0, 1.6))
    return zipf_coo(shape, nnz, exponents=exponent, seed=seed)


class TestShardingProperties:
    @given(tensors_and_params(), st.integers(0, 3), st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_shard_invariants(self, t, mode_raw, n_shards):
        mode = mode_raw % t.nmodes
        part = shard_mode(t, mode, n_shards)
        part.validate()  # coverage, contiguity, range membership
        # task independence: every output index in exactly one shard
        seen = set()
        for shard in part.shards:
            idx = np.unique(part.tensor.indices[shard.elements, mode])
            for i in idx:
                assert i not in seen
                seen.add(int(i))

    @given(tensors_and_params(), st.integers(1, 5), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_plan_rows_partition_index_space(self, t, n_gpus, shards_per_gpu):
        plan = build_partition_plan(t, n_gpus, shards_per_gpu=shards_per_gpu)
        plan.validate()
        for mode in range(t.nmodes):
            covered = np.zeros(t.shape[mode], dtype=int)
            for g in range(n_gpus):
                for lo, hi in plan.output_rows_for_gpu(mode, g):
                    covered[lo:hi] += 1
            assert (covered == 1).all()

    @given(tensors_and_params(), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_plan_conserves_nnz(self, t, n_gpus):
        plan = build_partition_plan(t, n_gpus, shards_per_gpu=3)
        plan.validate()
        for mode in range(t.nmodes):
            assert plan.gpu_nnz(mode).sum() == t.nnz


class TestBalanceProperties:
    @given(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=100),
        st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_lpt_conserves_and_bounds(self, sizes, n_bins):
        sizes = np.array(sizes, dtype=np.int64)
        a = assign_lpt(sizes, n_bins)
        loads = bin_loads(sizes, a, n_bins)
        assert loads.sum() == sizes.sum()
        # Graham's list-scheduling guarantee, provable against computable
        # quantities: makespan <= sum/m + (1 - 1/m) * max item. (The 4/3
        # factor holds only against the true optimum, which can exceed the
        # naive max(avg, biggest-item) lower bound — e.g. four 9s into
        # three bins force a bin of 18 while that bound is 12.)
        if sizes.sum() > 0:
            bound = sizes.sum() / n_bins + (1 - 1 / n_bins) * sizes.max()
            assert loads.max() <= bound + 1e-9
