"""Golden-regression data: fixed-seed tensors with checked-in expected
outputs.

Run ``PYTHONPATH=src python tests/golden/make_golden.py`` to (re)generate
``tests/golden/data/``. Regeneration is a deliberate act: the committed
files pin the production MTTKRP numerics bit-for-bit, so any diff in them is
a numerical behavior change that must be explained in review, not an
accident.

Each case stores, in one ``.npz``:

* the tensor (``indices``, ``values``, ``shape``) and its fixed-seed factor
  matrices (``factor_0..N-1``);
* the expected MTTKRP output of every mode (``mttkrp_0..N-1``), computed by
  the streaming engine at its default (eager) granularity — bit-identical
  across every ``(batch_size, backend, prefetch)`` configuration by design;
* the expected CP-ALS final fit (``cpals_fit``, with ``cpals_rank`` /
  ``cpals_iters``), computed with the AMPED engine as the MTTKRP backend.

It also pins the host-pipeline timing model: ``host_time_plan.json`` holds
the exact :func:`repro.engine.costmodel.host_time_plan` output for the
committed synthetic host profile (``host_profile.json``) over a matrix of
backend/out-of-core configs on the ``zipf3`` workload — the model is pure
arithmetic, so any diff is a deliberate cost-model change.

``execution_plan.json`` pins the plan layer the same way: the serialized
:class:`repro.engine.plan.ExecutionPlan` (resolved axes, pricing, and
sha256 fingerprint) for a (source × backend × prefetch) matrix against
the committed profile — any resolver or pricing change shows up as a
fingerprint diff that must be regenerated deliberately.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.core.amped import AmpedMTTKRP
from repro.core.config import AmpedConfig
from repro.cpd.als import cp_als
from repro.engine.costmodel import HostProfile, host_time_plan, load_host_profile
from repro.tensor.coo import SparseTensorCOO
from repro.tensor.generate import lowrank_coo, random_coo, zipf_coo

DATA_DIR = pathlib.Path(__file__).parent / "data"

#: the committed synthetic calibration pinned by ``host_profile.json`` —
#: deterministic mid-range values (NOT this machine's measurements), written
#: at the current ``HOST_PROFILE_VERSION`` so a profile-format bump
#: regenerates the golden file here instead of orphaning it at an
#: unreadable old version.
GOLDEN_HOST_PROFILE = HostProfile(
    hostname="golden-host",
    created="2026-07-29T00:00:00+00:00",
    quick=False,
    memcpy_bandwidth=1.0e10,
    reduce_bandwidth=2.0e9,
    kernel_reduce_bandwidth={
        "numpy": 2.0e9,
        "numba": 8.0e9,
        "cc": 6.0e9,
    },
    mmap_read_bandwidth=5.0e9,
    chunk_read_bandwidth=2.5e9,
    decompress_bandwidth={
        "none": 1.0e10,
        "zlib": 5.0e8,
        "lzma": 1.0e8,
        "zstd": 1.5e9,
    },
    serial_dispatch_s=4e-6,
    thread_dispatch_s=2e-5,
    process_task_s=8e-5,
    pipe_bandwidth=2.0e9,
    thread_efficiency=0.6,
    process_efficiency=0.75,
    prefetch_overhead_s=1e-5,
    loopback_bandwidth=1.5e9,
    loopback_latency_s=5e-5,
    loopback_frame_overhead_s=5e-4,
    stream_cache_fraction=0.03125,
)

#: config matrix pinned by host_time_plan.json (name -> AmpedConfig kwargs);
#: the workload is the ``zipf3`` case's, the profile the committed
#: ``host_profile.json``.
HOST_TIME_CASES: dict[str, dict] = {
    "serial_resident": {},
    "thread2_resident": dict(backend="thread", workers=2),
    "process2_prefetch_resident": dict(
        backend="process", workers=2, prefetch=True
    ),
    "serial_cc_kernel": dict(kernel="cc"),
    "thread2_numba_kernel": dict(backend="thread", workers=2, kernel="numba"),
    "serial_mmap_oc": dict(out_of_core=True, shard_cache="golden.npz"),
    "process2_zlib_oc_prefetch": dict(
        backend="process",
        workers=2,
        prefetch=True,
        out_of_core=True,
        shard_cache="golden_v2.npz",
        cache_codec="zlib",
        cache_chunk_nnz=4096,
    ),
}


def compute_host_time_plans() -> dict[str, dict]:
    """host_time_plan output per HOST_TIME_CASES entry (zipf3 workload)."""
    tensor, _factors, rank, config = build_case("zipf3")
    profile = load_host_profile(DATA_DIR / "host_profile.json")
    ex = AmpedMTTKRP(tensor, config, name="zipf3")
    plans = {}
    for case, kw in HOST_TIME_CASES.items():
        plans[case] = host_time_plan(
            ex.workload, config.replace(**kw), ex.cost, profile
        )
    return plans

#: config matrix pinned by execution_plan.json (name -> AmpedConfig
#: kwargs): the full resolved+priced ExecutionPlan — fingerprint included —
#: for a (source × backend × prefetch) matrix over the ``zipf3`` workload,
#: priced against the committed ``host_profile.json``. Only the ``numpy``
#: kernel appears (compiled tiers resolve by host availability, which
#: would make the pinned fingerprints host-dependent).
EXECUTION_PLAN_CASES: dict[str, dict] = {
    "inmem_serial": {},
    "inmem_thread2_prefetch": dict(backend="thread", workers=2, prefetch=True),
    "inmem_process2": dict(backend="process", workers=2),
    "mmap_oc_serial": dict(out_of_core=True, shard_cache="golden.npz"),
    "mmap_oc_serial_prefetch": dict(
        out_of_core=True, shard_cache="golden.npz", prefetch=True
    ),
    "chunked_oc_thread2_prefetch": dict(
        backend="thread",
        workers=2,
        prefetch=True,
        out_of_core=True,
        shard_cache="golden_v2.npz",
        cache_codec="zlib",
        cache_chunk_nnz=4096,
    ),
    "cluster2_serial": dict(backend="cluster", nodes=2),
}


def compute_execution_plans() -> dict[str, dict]:
    """Serialized ExecutionPlan per EXECUTION_PLAN_CASES entry (zipf3)."""
    from repro.engine.plan import plan_execution

    tensor, _factors, _rank, config = build_case("zipf3")
    profile = load_host_profile(DATA_DIR / "host_profile.json")
    ex = AmpedMTTKRP(tensor, config, name="zipf3")
    plans = {}
    for case, kw in EXECUTION_PLAN_CASES.items():
        plans[case] = plan_execution(
            config.replace(**kw), ex.workload, cost=ex.cost, profile=profile
        ).to_dict()
    return plans


#: name -> (tensor builder, factor seed, rank, AmpedConfig kwargs)
CASES: dict[str, dict] = {
    "zipf3": dict(
        build=lambda: zipf_coo((30, 20, 25), 600, exponents=1.1, seed=2026),
        factor_seed=7,
        rank=5,
        config=dict(n_gpus=4, shards_per_gpu=4),
        cpals_iters=8,
    ),
    "lowrank3": dict(
        build=lambda: lowrank_coo((24, 18, 15), 900, rank=3, noise=0.02, seed=99),
        factor_seed=3,
        rank=4,
        config=dict(n_gpus=2, shards_per_gpu=3),
        cpals_iters=10,
    ),
    "rand4": dict(
        build=lambda: random_coo((12, 9, 7, 5), 350, seed=11),
        factor_seed=13,
        rank=4,
        config=dict(n_gpus=3, shards_per_gpu=2),
        cpals_iters=6,
    ),
}


def build_case(name: str):
    """(tensor, factors, rank, config) of one golden case."""
    spec = CASES[name]
    tensor: SparseTensorCOO = spec["build"]()
    rng = np.random.default_rng(spec["factor_seed"])
    factors = [rng.random((s, spec["rank"])) for s in tensor.shape]
    config = AmpedConfig(rank=spec["rank"], **spec["config"])
    return tensor, factors, spec["rank"], config


def golden_path(name: str) -> pathlib.Path:
    return DATA_DIR / f"{name}.npz"


def compute_expected(name: str) -> dict[str, np.ndarray]:
    """All arrays stored in a case's .npz, freshly computed."""
    tensor, factors, rank, config = build_case(name)
    ex = AmpedMTTKRP(tensor, config, name=name)
    payload: dict[str, np.ndarray] = {
        "indices": tensor.indices,
        "values": tensor.values,
        "shape": np.array(tensor.shape, dtype=np.int64),
    }
    for m, f in enumerate(factors):
        payload[f"factor_{m}"] = f
    for m in range(tensor.nmodes):
        payload[f"mttkrp_{m}"] = ex.mttkrp(factors, m)
    n_iters = CASES[name]["cpals_iters"]
    res = cp_als(
        tensor, rank=rank, mttkrp=ex.mttkrp, n_iters=n_iters, tol=0.0, seed=42
    )
    payload["cpals_fit"] = np.float64(res.final_fit)
    payload["cpals_rank"] = np.int64(rank)
    payload["cpals_iters"] = np.int64(n_iters)
    return payload


def main() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    for name in CASES:
        payload = compute_expected(name)
        np.savez(golden_path(name), **payload)
        nnz = payload["values"].shape[0]
        print(
            f"wrote {golden_path(name)} (nnz={nnz}, "
            f"fit={float(payload['cpals_fit']):.6f})"
        )
    profile_path = GOLDEN_HOST_PROFILE.save(DATA_DIR / "host_profile.json")
    print(f"wrote {profile_path} (version {GOLDEN_HOST_PROFILE.version})")
    plans = compute_host_time_plans()
    out = DATA_DIR / "host_time_plan.json"
    out.write_text(json.dumps(plans, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(plans)} host-pipeline plans)")
    eplans = compute_execution_plans()
    out = DATA_DIR / "execution_plan.json"
    out.write_text(json.dumps(eplans, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(eplans)} execution plans)")


if __name__ == "__main__":
    main()
