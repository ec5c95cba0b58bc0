"""Property-based tests for the streaming engine's batch slicing.

Invariants (satellites of the streaming-engine and shard-source issues):

* the batches of a shard partition its nonzeros exactly once, in order;
* every batch edge respects ``segment_starts`` boundaries — no output-mode
  segment is ever split across two batches;
* a batch exceeds ``batch_size`` only when it is a single oversized segment;
* consequently the streamed MTTKRP is bit-identical to the eager reduction
  for any batch size and worker count;
* every :class:`repro.engine.ShardSource` implementation yields exactly the
  same segment-aligned batch boundaries as the in-memory ``BatchPlan`` —
  the invariant that makes cache-backed and generator-backed runs
  bit-identical to the resident path;
* :class:`repro.engine.PrefetchingSource` yields exactly the wrapped
  source's batches, in order, with byte-identical element arrays — for any
  tensor, sharding, and batch size (so prefetch can never change a
  result, only when bytes are read);
* the v2 chunked/compressed shard cache round-trips **byte-identically**
  for any tensor, codec, and chunk size — every mode-sorted array read
  back equals the bytes ``sorted_by_mode`` produced;
* the external-sort streaming builder, under an arbitrary tiny memory
  budget, emits a cache file **bit-identical** to the in-memory v2 writer
  (stable runs + stable merge == the global stable sort), with its tracked
  peak run size inside the budget-derived bound.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    CompressedChunkSource,
    InMemorySource,
    PrefetchingSource,
    StreamingExecutor,
    build_batch_plan,
    slice_segments,
)
from repro.partition.plan import build_partition_plan
from repro.partition.sharding import shard_mode
from repro.tensor.coo import index_dtype
from repro.tensor.generate import zipf_coo
from repro.tensor.io import (
    available_codecs,
    load_shard_cache_v2,
    write_shard_cache_streaming,
    write_shard_cache_v2,
)


@st.composite
def sliced_keys(draw):
    """A sorted key array plus a batch size."""
    n = draw(st.integers(0, 200))
    universe = draw(st.integers(1, 30))
    keys = np.sort(
        np.asarray(draw(
            st.lists(st.integers(0, universe - 1), min_size=n, max_size=n)
        ), dtype=np.int64)
    )
    batch_size = draw(st.one_of(st.none(), st.integers(1, 64)))
    return keys, batch_size


@st.composite
def engine_cases(draw):
    nmodes = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(2, 12)) for _ in range(nmodes))
    nnz = draw(st.integers(1, 150))
    seed = draw(st.integers(0, 2**31 - 1))
    n_gpus = draw(st.integers(1, 4))
    shards_per_gpu = draw(st.integers(1, 4))
    batch_size = draw(st.one_of(st.none(), st.integers(1, 50)))
    workers = draw(st.integers(1, 3))
    mode = draw(st.integers(0, nmodes - 1))
    return shape, nnz, seed, n_gpus, shards_per_gpu, batch_size, workers, mode


class TestSliceSegmentsProperties:
    @given(sliced_keys())
    @settings(max_examples=120, deadline=None)
    def test_partition_and_alignment(self, case):
        keys, batch_size = case
        slices = slice_segments(keys, batch_size)
        # exact cover, in order, no empty slices
        pos = 0
        for lo, hi in slices:
            assert lo == pos and hi > lo
            pos = hi
        assert pos == keys.shape[0]
        for lo, hi in slices:
            # batch edges never split a segment
            if lo > 0:
                assert keys[lo] != keys[lo - 1]
            # oversized batches are single segments
            if batch_size is not None and hi - lo > batch_size:
                assert (keys[lo:hi] == keys[lo]).all()

    @given(sliced_keys())
    @settings(max_examples=60, deadline=None)
    def test_cuts_are_maximal(self, case):
        """Greedy slicing: no batch could absorb its successor's first
        segment without exceeding batch_size."""
        keys, batch_size = case
        if batch_size is None:
            return
        slices = slice_segments(keys, batch_size)
        for (lo, hi), (nlo, nhi) in zip(slices, slices[1:]):
            next_seg_end = nlo + int(
                np.searchsorted(keys[nlo:], keys[nlo], side="right")
            )
            assert (next_seg_end - lo) > batch_size


class TestBatchPlanProperties:
    @given(engine_cases())
    @settings(max_examples=60, deadline=None)
    def test_plan_partitions_every_shard(self, case):
        shape, nnz, seed, _, _, batch_size, _, mode = case
        t = zipf_coo(shape, nnz, exponents=1.0, seed=seed)
        part = shard_mode(t, mode, min(4, shape[mode]))
        plan = build_batch_plan(part, batch_size)
        plan.validate_against(part)  # coverage + alignment invariants
        # every element covered exactly once across all batches
        counts = np.zeros(t.nnz, dtype=np.int64)
        for b in plan.batches:
            counts[b.elements] += 1
        assert (counts == 1).all()


class TestSourceProperties:
    @given(engine_cases())
    @settings(max_examples=20, deadline=None)
    def test_every_source_yields_batchplan_boundaries(self, case):
        """The mapped-cache source cuts exactly the batches BatchPlan cuts
        on the resident partition — for any tensor, sharding, and batch
        size."""
        shape, nnz, seed, n_gpus, shards_per_gpu, batch_size, _, mode = case
        t = zipf_coo(shape, nnz, exponents=1.0, seed=seed)
        plan = build_partition_plan(t, n_gpus, shards_per_gpu=shards_per_gpu)
        plan.validate()
        want = build_batch_plan(plan.modes[mode], batch_size)
        with tempfile.TemporaryDirectory() as tmp:
            cache = write_shard_cache_v2(t, Path(tmp) / "t.npz", codec="none")
            with CompressedChunkSource(
                cache, n_gpus=n_gpus, shards_per_gpu=shards_per_gpu
            ) as source:
                part = source.partition(mode)
                assert part.shards == plan.modes[mode].shards
                got = build_batch_plan(
                    part, batch_size, keys=source.mode_keys(mode)
                )
                assert got.batches == want.batches
                got.validate_against(part)


class TestPrefetchProperties:
    @given(engine_cases())
    @settings(max_examples=40, deadline=None)
    def test_prefetching_source_yields_wrapped_batches_in_order(self, case):
        """PrefetchingSource delivery == the wrapped source's batches: same
        order, same plan entries, byte-identical staged element arrays."""
        shape, nnz, seed, n_gpus, shards_per_gpu, batch_size, _, mode = case
        t = zipf_coo(shape, nnz, exponents=1.0, seed=seed)
        plan = build_partition_plan(t, n_gpus, shards_per_gpu=shards_per_gpu)
        source = InMemorySource(plan)
        prefetching = PrefetchingSource(source)
        part = source.partition(mode)
        batches = build_batch_plan(part, batch_size).batches
        loaded = list(prefetching.iter_batches(mode, batches))
        assert tuple(lb.batch for lb in loaded) == batches
        for lb in loaded:
            sl = lb.batch.elements
            assert np.array_equal(lb.indices, part.tensor.indices[sl])
            assert np.array_equal(lb.values, part.tensor.values[sl])


class TestExecutorProperties:
    @given(engine_cases(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_streamed_equals_eager_bitwise(self, case, prefetch):
        shape, nnz, seed, n_gpus, shards_per_gpu, batch_size, workers, mode = case
        t = zipf_coo(shape, nnz, exponents=1.0, seed=seed)
        rng = np.random.default_rng(seed + 1)
        factors = [rng.standard_normal((s, 4)) for s in shape]
        plan = build_partition_plan(t, n_gpus, shards_per_gpu=shards_per_gpu)
        eager = StreamingExecutor(plan).mttkrp(factors, mode)
        with StreamingExecutor(
            plan, batch_size=batch_size,
            backend="thread" if workers > 1 else "serial", workers=workers,
            prefetch=prefetch,
        ) as engine:
            streamed = engine.mttkrp(factors, mode)
        assert np.array_equal(eager, streamed)


@st.composite
def v2_cache_cases(draw):
    """An arbitrary small COO tensor plus v2 format knobs."""
    nmodes = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(2, 12)) for _ in range(nmodes))
    nnz = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**31 - 1))
    codec = draw(st.sampled_from(available_codecs()))
    chunk_nnz = draw(st.integers(1, 64))
    return shape, nnz, seed, codec, chunk_nnz


class TestCompressedCacheProperties:
    @given(v2_cache_cases())
    @settings(max_examples=40, deadline=None)
    def test_v2_round_trip_is_byte_identical(self, case):
        """write_shard_cache_v2 -> load_shard_cache_v2 reproduces every
        mode-sorted array byte for byte, for any tensor, codec, and chunk
        size — compression and chunking never touch the logical content."""
        shape, nnz, seed, codec, chunk_nnz = case
        t = zipf_coo(shape, nnz, exponents=1.0, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_shard_cache_v2(
                t, Path(tmp) / "t.npz", codec=codec, chunk_nnz=chunk_nnz
            )
            with load_shard_cache_v2(path) as reader:
                assert reader.shape == t.shape
                assert reader.nnz == t.nnz
                assert reader.codec_name == codec
                narrow = index_dtype(t.shape)
                for m in range(t.nmodes):
                    s = t.sorted_by_mode(m)
                    want = s.indices.astype(narrow)
                    idx = np.asarray(reader.array(f"mode{m}_indices"))
                    val = np.asarray(reader.array(f"mode{m}_values"))
                    keys = np.asarray(reader.array(f"mode{m}_keys"))
                    assert idx.dtype == keys.dtype == narrow
                    assert idx.tobytes() == want.tobytes()
                    assert val.tobytes() == s.values.tobytes()
                    assert keys.tobytes() == want[:, m].tobytes()

    @given(v2_cache_cases(), st.integers(1, 2000))
    @settings(max_examples=30, deadline=None)
    def test_external_sort_builder_bit_identical_under_any_budget(
        self, case, budget_elems
    ):
        """The streaming external-sort builder produces a file *bit-identical*
        to the in-memory v2 writer for any memory budget — even budgets so
        tiny that every element lands in its own run — and its tracked peak
        stays inside the budget-derived run bound."""
        shape, nnz, seed, codec, chunk_nnz = case
        t = zipf_coo(shape, nnz, exponents=1.0, seed=seed)
        per_element = (t.nmodes + 3) * 8
        budget = budget_elems * per_element
        with tempfile.TemporaryDirectory() as tmp:
            want = write_shard_cache_v2(
                t, Path(tmp) / "mem.npz", codec=codec, chunk_nnz=chunk_nnz
            )
            res = write_shard_cache_streaming(
                t,
                Path(tmp) / "ext.npz",
                memory_budget=budget,
                codec=codec,
                chunk_nnz=chunk_nnz,
            )
            assert res.path.read_bytes() == want.read_bytes()
            assert res.nnz == t.nnz and res.shape == t.shape
            assert res.run_nnz == max(1, budget // per_element)
            # the tracked peak: one run plus its sort permutation, or the
            # k-way merge working set — head blocks are at least one
            # element per run, so the floor is the run count, never O(nnz)
            assert res.peak_run_nnz <= 2 * max(res.run_nnz, res.n_runs)
