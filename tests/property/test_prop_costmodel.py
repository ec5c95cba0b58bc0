"""Property-based tests for the host-pipeline timing model.

Invariants (satellite of the cost-model issue):

* predicted total time is **monotone nondecreasing in nnz** — streaming
  more elements can never be predicted cheaper, for any backend,
  out-of-core setting, codec, prefetch flag, and (valid) profile;
* predicted total time is **monotone nondecreasing in the codec's
  compressed-size ratio** — a worse compressor can only add read time;
* the reported total always equals the sum of its visible terms, and every
  term is finite and nonnegative (a model that returns NaN/negative time
  would silently corrupt ``backend="auto"`` ranking);
* ``resolve_auto_execution`` with ``backend="auto"`` always returns one of
  the three backend candidates it ranked, and the candidate it returns has
  the smallest predicted total.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AmpedConfig
from repro.core.workload import ModeWorkload, TensorWorkload
from repro.engine.costmodel import (
    DEFAULT_HOST_PROFILE,
    host_time_plan,
    rank_executions,
    resolve_auto_execution,
)
from repro.simgpu.kernel import KernelCostModel

COST = KernelCostModel()

TERMS = (
    "compute_s",
    "dispatch_s",
    "ipc_s",
    "staging_read_s",
    "decompress_s",
    "stall_s",
    "prefetch_overhead_s",
    "total_s",
)


def make_workload(nnz: int, nmodes: int = 3, n_gpus: int = 2) -> TensorWorkload:
    """A minimal descriptor with ``nnz`` split over a few shards per mode."""
    shape = tuple(max(4, nnz // (2 + m)) for m in range(nmodes))
    n_shards = 4
    base, rem = divmod(nnz, n_shards)
    shard_nnz = np.array(
        [base + (1 if j < rem else 0) for j in range(n_shards)], dtype=np.int64
    )
    assignment = np.arange(n_shards, dtype=np.int64) % n_gpus
    modes = tuple(
        ModeWorkload(
            mode=m,
            extent=shape[m],
            shard_nnz=shard_nnz,
            assignment=assignment,
            rows_per_gpu=np.full(n_gpus, shape[m] // n_gpus, dtype=np.int64),
            factor_hit=0.5,
        )
        for m in range(nmodes)
    )
    return TensorWorkload(name="prop", shape=shape, nnz=nnz, modes=modes)


config_strategy = st.fixed_dictionaries(
    {
        "backend": st.sampled_from(["serial", "thread", "process"]),
        "workers": st.integers(min_value=1, max_value=8),
        "prefetch": st.booleans(),
        "oc": st.sampled_from([None, "v1", "zlib", "lzma", "zstd", "none"]),
        "batch_size": st.sampled_from([None, "auto", 64, 4096]),
    }
)


def build_config(params) -> AmpedConfig:
    kw: dict = dict(
        rank=8,
        n_gpus=2,
        prefetch=params["prefetch"],
        batch_size=params["batch_size"],
    )
    if params["backend"] == "serial":
        kw.update(backend="serial", workers=1)
    else:
        kw.update(backend=params["backend"], workers=params["workers"])
    if params["oc"] is not None:
        kw.update(out_of_core=True, shard_cache="prop.npz")
        if params["oc"] != "v1":
            kw.update(cache_codec=params["oc"], cache_chunk_nnz=1024)
    return AmpedConfig(**kw)


@given(
    nnz_lo=st.integers(min_value=1, max_value=200_000),
    nnz_delta=st.integers(min_value=0, max_value=200_000),
    params=config_strategy,
)
@settings(max_examples=60, deadline=None)
def test_total_time_is_monotone_in_nnz(nnz_lo, nnz_delta, params):
    config = build_config(params)
    lo = host_time_plan(make_workload(nnz_lo), config, COST)
    hi = host_time_plan(make_workload(nnz_lo + nnz_delta), config, COST)
    assert hi["total_s"] >= lo["total_s"] - 1e-12


@given(
    nnz=st.integers(min_value=100, max_value=100_000),
    ratio_lo=st.floats(min_value=0.0, max_value=2.0),
    ratio_delta=st.floats(min_value=0.0, max_value=2.0),
    codec=st.sampled_from(["none", "zlib", "lzma", "zstd"]),
    prefetch=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_total_time_is_monotone_in_codec_ratio(
    nnz, ratio_lo, ratio_delta, codec, prefetch
):
    config = AmpedConfig(
        rank=8,
        n_gpus=2,
        out_of_core=True,
        shard_cache="prop.npz",
        cache_codec=codec,
        prefetch=prefetch,
        batch_size=256,
    )
    workload = make_workload(nnz)
    lo = host_time_plan(workload, config, COST, codec_ratio=ratio_lo)
    hi = host_time_plan(workload, config, COST, codec_ratio=ratio_lo + ratio_delta)
    assert hi["total_s"] >= lo["total_s"] - 1e-12
    assert hi["staging_read_s"] >= lo["staging_read_s"] - 1e-12


@given(
    nnz=st.integers(min_value=1, max_value=500_000),
    params=config_strategy,
)
@settings(max_examples=60, deadline=None)
def test_terms_are_finite_nonnegative_and_sum(nnz, params):
    config = build_config(params)
    plan = host_time_plan(make_workload(nnz), config, COST)
    for term in TERMS:
        assert math.isfinite(plan[term]) and plan[term] >= 0.0, term
    visible = (
        plan["compute_s"]
        + plan["dispatch_s"]
        + plan["ipc_s"]
        + plan["stall_s"]
        + plan["prefetch_overhead_s"]
    )
    assert math.isclose(plan["total_s"], visible, rel_tol=1e-12, abs_tol=1e-15)
    assert plan["n_batches"] >= 1


@given(
    nnz=st.integers(min_value=100, max_value=200_000),
    workers=st.integers(min_value=2, max_value=8),
    reduce_bw=st.floats(min_value=1e8, max_value=1e11),
    task_s=st.floats(min_value=0.0, max_value=1e-3),
)
@settings(max_examples=40, deadline=None)
def test_auto_backend_picks_the_ranked_minimum(nnz, workers, reduce_bw, task_s):
    profile = DEFAULT_HOST_PROFILE.replace(
        reduce_bandwidth=reduce_bw, process_task_s=task_s
    )
    config = AmpedConfig(rank=8, n_gpus=2, backend="auto", workers=workers)
    workload = make_workload(nnz)
    plans = rank_executions(workload, config, COST, profile)
    choice = resolve_auto_execution(workload, config, COST, profile)
    best = plans[0]
    assert choice == (best["kernel"], best["backend"], best["workers"])
    assert best["total_s"] == min(p["total_s"] for p in plans)
    assert choice[0] == "numpy"  # the config's kernel is held fixed
    assert choice[1] in ("serial", "thread", "process")
