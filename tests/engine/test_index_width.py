"""Index-width edges of the resident mode copies.

A partition plan stores each mode-sorted copy's indices in the narrowest
dtype that holds every extent (:func:`repro.tensor.coo.index_dtype`):
uint16 up to ``max(shape) == 2**16``, uint32 up to ``2**32``, int64 beyond.
At each edge the plan and its batch plans must validate, and MTTKRP must be
bit-identical to the same plan with int64 copies sharded straight from the
tensor — for the numpy and cc tiers on the serial, thread and process
backends.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.engine import (
    ProcessBackend,
    SerialBackend,
    StreamingExecutor,
    ThreadBackend,
)
from repro.engine.batch import build_batch_plan
from repro.partition.plan import build_partition_plan
from repro.partition.sharding import shard_mode
from repro.tensor.coo import SparseTensorCOO, index_dtype

U16_EDGE = 1 << 16


@pytest.mark.parametrize(
    "shape,want",
    [
        ((1,), np.uint16),
        ((5, U16_EDGE), np.uint16),
        ((U16_EDGE + 1, 3), np.uint32),
        ((7, 1 << 32), np.uint32),
        (((1 << 32) + 1, 2), np.int64),
    ],
)
def test_index_dtype_edges(shape, want):
    assert index_dtype(shape) == np.dtype(want)


def _edge_tensor(shape, nnz=600, seed=5) -> SparseTensorCOO:
    """Random coordinates plus rows at 0 and extent-1 of every mode, and a
    run of rows on the largest index, so the top shard boundary (the
    extent itself) meets keys at the dtype's limit."""
    rng = np.random.default_rng(seed)
    cols = [rng.integers(0, s, nnz) for s in shape]
    indices = np.stack(cols, axis=1).astype(np.int64)
    ends = np.array([[0] * len(shape), [s - 1 for s in shape]], dtype=np.int64)
    top = np.tile(ends[1], (5, 1))
    top[:, 1:] = rng.integers(0, min(shape[1:]), (5, len(shape) - 1))
    indices = np.concatenate([indices, ends, top])
    values = rng.random(indices.shape[0])
    return SparseTensorCOO(indices, values, shape)


WIDTHS = {
    # max(shape) == 2**16: uint16 keys hold 65,535, the top boundary 65,536
    "uint16": ((U16_EDGE, 9, 7), np.uint16),
    # one past: uint32, with keys above the uint16 range
    "uint32": ((U16_EDGE + 1, 9, 7), np.uint32),
}


@pytest.fixture(scope="module")
def backends():
    pool = {
        "serial": SerialBackend(),
        "thread": ThreadBackend(2),
        "process": ProcessBackend(2),
    }
    yield pool
    for backend in pool.values():
        backend.close()


@pytest.fixture(scope="module", params=sorted(WIDTHS))
def width_case(request):
    shape, dtype = WIDTHS[request.param]
    tensor = _edge_tensor(shape)
    plan = build_partition_plan(tensor, 2, shards_per_gpu=4)
    # the int64 reference: each mode sharded from the int64 tensor itself
    wide = replace(plan, modes=tuple(
        shard_mode(tensor, mode, 2 * 4) for mode in range(tensor.nmodes)
    ))
    rng = np.random.default_rng(17)
    factors = [rng.random((s, 4)) for s in shape]
    return tensor, dtype, plan, wide, factors


class TestWidthEdges:
    def test_plan_narrows_and_validates(self, width_case):
        tensor, dtype, plan, wide, _ = width_case
        plan.validate()
        for part, ref in zip(plan.modes, wide.modes):
            assert part.tensor.indices.dtype == np.dtype(dtype)
            assert ref.tensor.indices.dtype == np.int64
            assert np.array_equal(part.tensor.indices, ref.tensor.indices)
            assert part.shards == ref.shards
        # the top shard owns the rows at extent-1
        last = plan.modes[0].shards[-1]
        assert last.index_range[1] == tensor.shape[0]
        keys = plan.modes[0].tensor.indices[last.elements, 0]
        assert int(keys.max()) == tensor.shape[0] - 1

    @pytest.mark.parametrize("batch_size", [1, 3, 50, None])
    def test_batch_plans_validate(self, width_case, batch_size):
        _, _, plan, wide, _ = width_case
        for part, ref in zip(plan.modes, wide.modes):
            batches = build_batch_plan(part, batch_size)
            batches.validate_against(part)
            assert batches.batches == build_batch_plan(ref, batch_size).batches

    @pytest.mark.parametrize("kernel", ["numpy", "cc"])
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_mttkrp_bit_identical_to_int64(
        self, width_case, backends, kernel, backend
    ):
        tensor, _, plan, wide, factors = width_case
        got = StreamingExecutor(
            plan, batch_size=64, backend=backends[backend], kernel=kernel
        )
        want = StreamingExecutor(wide, batch_size=64, kernel=kernel)
        for mode in range(tensor.nmodes):
            assert np.array_equal(
                got.mttkrp(factors, mode), want.mttkrp(factors, mode)
            )


def test_extent_above_uint32_keeps_int64():
    """An extent past 2**32 with a few nonzeros: int64 copies, valid plan
    and batch plans (no MTTKRP: its factor would need 2**32 rows)."""
    tensor = _edge_tensor(((1 << 32) + 3, 6, 4), nnz=40)
    plan = build_partition_plan(tensor, 2, shards_per_gpu=3)
    plan.validate()
    for part in plan.modes:
        assert part.tensor.indices.dtype == np.int64
        build_batch_plan(part, 4).validate_against(part)
    assert int(plan.modes[0].tensor.indices[-1, 0]) == (1 << 32) + 2

