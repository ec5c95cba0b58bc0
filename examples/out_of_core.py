"""Walkthrough: out-of-core decomposition from a memory-mapped shard cache.

Run:  python examples/out_of_core.py

PR 1's streaming engine bounded the *transient* working set at
``batch_size`` elements but still held every mode-sorted tensor copy in host
RAM. Shard sources remove that cap: convert the tensor once into a shard
cache (`repro.tensor.io.write_shard_cache_streaming` — one mode-sorted copy
per mode, stored as raw ``codec="none"`` frames so every array can be
memory-mapped), then stream batches straight off the file through
:class:`repro.engine.CompressedChunkSource`. Only the pages of the in-flight
batches are resident, so the tensor can be far larger than memory while the
results stay **bit-identical** to the in-memory path.

The flow below is the CI smoke job: FROSTT ``.tns`` text → shard cache →
streaming CP-ALS, checked against the fully in-memory decomposition — with
the out-of-core run on the **process-pool backend** (workers attach to the
mapped cache read-only; no tensor bytes cross a pipe) and **prefetch** (the
source's own read-ahead: the compressed cache of step 8 decodes the next
chunks while the current batch reduces; over the mapped cache it is a
pass-through). It drives both the library API and the CLI
(`repro cache` / `repro decompose --shard-cache ... --out-of-core
--backend process --prefetch`).
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    AmpedConfig,
    AmpedMTTKRP,
    CompressedChunkSource,
    StreamingExecutor,
)
from repro.cli import main as repro_cli
from repro.core.simulate import host_memory_plan
from repro.cpd.als import cp_als
from repro.engine import auto_batch_size
from repro.tensor.generate import lowrank_coo
from repro.tensor.io import read_tns, write_shard_cache_streaming, write_tns
from repro.util.humanize import format_bytes

RANK = 4
ITERS = 8
GPUS = 2
SEED = 7


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        # --- 1. a "downloaded" FROSTT .tns file ---------------------------
        generated = lowrank_coo((60, 45, 30), 6000, rank=3, noise=0.05, seed=SEED)
        tns_path = tmp / "example.tns"
        write_tns(tns_path, generated, header="out-of-core walkthrough")
        # Read it back like a real download would be: the shape is inferred
        # from the indices (the FROSTT convention), so both execution paths
        # below see exactly the same tensor.
        tensor = read_tns(tns_path)
        print(f"tensor: shape={tensor.shape}, nnz={tensor.nnz} -> {tns_path.name}")

        # --- 2. convert once into a memory-mapped shard cache -------------
        cache_path = write_shard_cache_streaming(
            tns_path, tmp / "example.npz", memory_budget=1 << 20, codec="none"
        ).path
        print(
            f"shard cache: {cache_path.name} "
            f"({format_bytes(cache_path.stat().st_size)}, "
            f"{tensor.nmodes} mode-sorted copies)"
        )

        # --- 3. in-memory reference decomposition ------------------------
        config = AmpedConfig(n_gpus=GPUS, rank=RANK)
        in_memory = AmpedMTTKRP(tensor, config, name="in-memory")
        ref = cp_als(
            tensor, rank=RANK, mttkrp=in_memory.mttkrp, n_iters=ITERS,
            tol=0.0, seed=SEED,
        )

        # --- 4. the same decomposition, streamed out of core --------------
        # ... on the process-pool backend with prefetch: pool workers
        # re-open the cache read-only and add their rows into a shared
        # output block (nothing but task bounds crosses the pipe); a mapped
        # cache has no read-ahead of its own, so
        # prefetch leaves its batches as they are.
        ooc_config = config.replace(backend="process", workers=2, prefetch=True)
        ooc = AmpedMTTKRP.from_shard_cache(cache_path, ooc_config, name="ooc")
        print(
            f"out-of-core batch_size resolved to {ooc.engine.batch_size} "
            f"(config batch_size={config.batch_size!r}, cache-model autotune); "
            f"backend={ooc.engine.backend.name}, prefetch on"
        )
        res = cp_als(
            ooc.tensor, rank=RANK, mttkrp=ooc.mttkrp, n_iters=ITERS,
            tol=0.0, seed=SEED,
        )
        print(
            f"fit: in-memory {ref.final_fit:.10f}, "
            f"out-of-core {res.final_fit:.10f}"
        )
        if abs(res.final_fit - ref.final_fit) > 1e-12:
            raise SystemExit("FAIL: out-of-core fit diverged from in-memory")

        # The MTTKRP outputs themselves are bit-identical, not just close:
        rng = np.random.default_rng(1)
        factors = [rng.random((s, RANK)) for s in tensor.shape]
        for mode in range(tensor.nmodes):
            a = in_memory.mttkrp(factors, mode)
            b = ooc.mttkrp(factors, mode)
            if not np.array_equal(a, b):
                raise SystemExit(f"FAIL: mode {mode} bits differ")
        print(
            "MTTKRP outputs bit-identical across all modes "
            "(process backend + prefetch vs in-memory serial)"
        )
        ooc.close()  # release the process pool and the cache maps

        # --- 5. what the residency accounting says ------------------------
        for label, ex in (("in-memory", in_memory), ("out-of-core", ooc)):
            plan = host_memory_plan(ex.workload, ex.config, ex.cost)
            print(
                f"host residency ({label}): tensor "
                f"{format_bytes(plan['tensor_resident'])}, factors "
                f"{format_bytes(plan['factor_matrices'])}"
            )

        # --- 6. the same flow through the CLI -----------------------------
        cli_cache = tmp / "cli.npz"
        assert repro_cli(["cache", "--tns", str(tns_path), str(cli_cache)]) == 0
        assert repro_cli(
            [
                "decompose",
                "--shard-cache", str(cli_cache),
                "--out-of-core",
                "--backend", "process",
                "--workers", "2",
                "--prefetch",
                "--rank", str(RANK),
                "--iters", str(ITERS),
                "--gpus", str(GPUS),
                "--seed", str(SEED),
            ]
        ) == 0

        # --- 7. batch size is the knob that trades I/O granularity --------
        source = CompressedChunkSource(cache_path, n_gpus=GPUS)
        auto_b = auto_batch_size(ooc.cost, RANK, tensor.nmodes)
        for batch in (auto_b, 512, None):
            engine = StreamingExecutor(source, batch_size=batch)
            out = engine.mttkrp(factors, 0)
            assert np.array_equal(out, in_memory.mttkrp(factors, 0))
        print(f"auto batch {auto_b}: every granularity bit-identical — OK")

        # --- 8. cold storage: a compressed cache, built in O(budget) -------
        # The external-sort streaming builder ingests the .tns directly —
        # the tensor is never resident during construction — and a
        # compressed codec replaces mmap faulting with explicit chunk reads
        # + decompression (the right trade when bytes moved, not page
        # faults, are what cold storage charges for); with prefetch the
        # next chunks decode on the reader's pool while a batch reduces.
        budget = 16 * 1024  # bytes; far below this tensor's element footprint
        res = write_shard_cache_streaming(
            tns_path, tmp / "example_v2.npz",
            memory_budget=budget, codec="zlib", chunk_nnz=1024,
        )
        raw_bytes = cache_path.stat().st_size
        print(
            f"zlib cache: {res.path.name} "
            f"({format_bytes(res.path.stat().st_size)} vs codec=none "
            f"{format_bytes(raw_bytes)}; external sort: {res.n_runs} runs of "
            f"<= {res.run_nnz} elements, peak {res.peak_run_nnz} resident)"
        )
        v2_config = config.replace(prefetch=True)
        with AmpedMTTKRP.from_shard_cache(res.path, v2_config) as v2:
            assert isinstance(v2.source, CompressedChunkSource)
            for mode in range(tensor.nmodes):
                if not np.array_equal(
                    v2.mttkrp(factors, mode), in_memory.mttkrp(factors, mode)
                ):
                    raise SystemExit(f"FAIL: zlib mode {mode} bits differ")
            plan = host_memory_plan(v2.workload, v2.config, v2.cost)
            print(
                f"compressed cache bit-identical (codec="
                f"{v2.config.cache_codec}, decompress staging "
                f"{format_bytes(plan['decompress_staging'])})"
            )


if __name__ == "__main__":
    main()
