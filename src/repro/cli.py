"""Command-line interface: ``python -m repro <command>``.

Commands
--------
experiments   regenerate the paper's tables/figures (model scale)
datasets      list the Table 3 dataset profiles
simulate      simulate one dataset x method at paper scale
decompose     CP-ALS on a FROSTT .tns file (or a synthetic dataset instance)
plan          resolve and price a decompose without running it
cache         build an out-of-core shard cache (.npz) from a tensor
profile       calibrate this host (microbenchmarks -> JSON host profile)
trace         export a simulated AMPED run as Chrome trace JSON
bench         trial harness: run sweeps, write/compare BENCH trajectories
cluster       run a cluster node server (``repro cluster node HOST:PORT``)
serve         run the always-on decomposition job server (HTTP)
"""

from __future__ import annotations

import argparse
import sys

from repro.util.humanize import parse_size
from repro.version import __version__

__all__ = ["main", "build_parser"]


def _size_arg(text: str) -> int:
    """Parse a byte count: a positive int, optionally with a binary k/M/G
    suffix (case-insensitive). Shares the one canonical parser/message with
    ``--chunk-nnz`` and ``AmpedConfig.cache_chunk_nnz``
    (:func:`repro.util.humanize.parse_size`), so ``0``/``0k``/negative
    values are rejected identically everywhere — including after the
    suffix multiplication."""
    try:
        return parse_size(text, what="byte count")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _chunk_nnz_arg(text: str) -> int:
    """Parse ``--chunk-nnz``: a positive nonzero count, same literals and
    same canonical rejection as ``--memory-budget`` and the config field."""
    try:
        return parse_size(text, what="chunk-nnz")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _batch_size_arg(text: str):
    """Parse ``--batch-size``: an int, ``auto`` (cache model), or ``none``."""
    lowered = text.strip().lower()
    if lowered == "auto":
        return "auto"
    if lowered in ("none", "eager"):
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, 'auto', or 'none'; got {text!r}"
        ) from None


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """The flags ``decompose`` and ``plan`` share, declared once.

    Both commands turn them into an :class:`AmpedConfig` through
    :func:`_engine_config`, so for the same flags ``repro plan`` prints the
    plan fingerprint ``repro decompose`` then executes under.
    """
    # Not required: an existing --shard-cache is a tensor source by itself.
    src = parser.add_mutually_exclusive_group(required=False)
    src.add_argument("--tns", help="FROSTT .tns file")
    src.add_argument(
        "--dataset",
        choices=["amazon", "patents", "reddit", "twitch"],
        help="scaled synthetic instance of a Table 3 dataset",
    )
    parser.add_argument("--nnz", type=int, default=100_000, help="scaled nnz")
    parser.add_argument("--rank", type=int, default=16)
    parser.add_argument("--gpus", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--batch-size",
        type=_batch_size_arg,
        default="auto",
        help="streaming batch granularity in nonzeros: an int, 'auto' "
        "(default: eager in memory, cache-model batches out of core), or "
        "'none' (whole shards)",
    )
    parser.add_argument(
        "--backend",
        default="serial",
        help="execution backend for batch reductions: serial (default), "
        "thread (persistent GIL-releasing thread pool), process "
        "(process pool attaching to the shard cache / shared memory), "
        "cluster (N node processes over sockets, each running its own "
        "local pipeline — see --nodes/--cluster-nodes), or "
        "auto (pick the backend the host cost model predicts fastest for "
        "this workload, using --host-profile when given); results are "
        "bit-identical across backends",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="node-process count for --backend cluster (default 2; "
        "loopback processes are spawned locally); with --backend auto a "
        "pinned count >1 also ranks the cluster backend against the "
        "single-host backends",
    )
    parser.add_argument(
        "--cluster-nodes",
        default=None,
        metavar="HOST:PORT,...",
        help="comma-separated addresses of already running `repro cluster "
        "node` servers to use instead of spawning loopback processes "
        "(implies the node count; requires --backend cluster)",
    )
    parser.add_argument(
        "--kernel",
        default="numpy",
        choices=["auto", "numpy", "numba", "cc"],
        help="MTTKRP kernel tier for batch reductions: numpy (default; the "
        "bit-exact reference), numba / cc (fused compiled tiers — "
        "deterministic, within ~1e-12 of numpy, falling back to numpy "
        "when unavailable on this host), or auto (pick the tier the host "
        "cost model predicts fastest, alongside --backend auto)",
    )
    parser.add_argument(
        "--host-profile",
        default=None,
        metavar="PATH",
        help="measured host profile JSON (written by `repro profile`) "
        "consumed by --backend/--kernel auto, batch autotuning, and the "
        "host pipeline prediction; default: the REPRO_HOST_PROFILE env var",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count of the selected backend (the serial backend "
        "takes only 1: pass --backend thread or process for a pool)",
    )
    parser.add_argument(
        "--prefetch",
        action="store_true",
        help="overlap element staging with compute: decode the next "
        "compressed cache chunks on a small decode pool while the current "
        "batch reduces (a no-op for resident tensors and codec=none caches)",
    )
    parser.add_argument(
        "--shard-cache",
        help="shard cache .npz path (required by --out-of-core); "
        "`decompose` builds it from the input tensor if missing, `plan` "
        "reads only an existing cache's metadata",
    )
    parser.add_argument(
        "--out-of-core",
        action="store_true",
        help="stream element batches from the shard cache instead of "
        "holding the partition plan in RAM",
    )
    parser.add_argument(
        "--max-nnz",
        type=int,
        default=None,
        help="refuse to materialize a .tns with more nonzeros than this",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AMPED reproduction: multi-GPU sparse MTTKRP (ICPP 2025)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument(
        "names",
        nargs="*",
        default=[],
        help="subset (table1 table3 fig5..fig10 headline); default: all",
    )

    sub.add_parser("datasets", help="list dataset profiles (Table 3)")

    p_sim = sub.add_parser("simulate", help="simulate one dataset x method")
    p_sim.add_argument("dataset", choices=["amazon", "patents", "reddit", "twitch"])
    p_sim.add_argument(
        "--method",
        default="amped",
        choices=["amped", "blco", "mm-csf", "hicoo-gpu", "flycoo-gpu", "equal-nnz"],
    )
    p_sim.add_argument("--gpus", type=int, default=4)
    p_sim.add_argument("--rank", type=int, default=32)
    p_sim.add_argument("--shards-per-gpu", type=int, default=16)
    p_sim.add_argument(
        "--batch-size",
        type=_batch_size_arg,
        default="auto",
        help="streaming batch granularity in nonzeros: an int, 'auto' "
        "(default; resolves to whole shards for the resident model runs "
        "this command times), or 'none' (whole shards)",
    )
    p_sim.add_argument(
        "--host-profile",
        default=None,
        metavar="PATH",
        help="measured host profile JSON (written by `repro profile`) for "
        "the host-pipeline time prediction printed alongside the device "
        "simulation; default: the REPRO_HOST_PROFILE env var, else the "
        "committed synthetic calibration",
    )
    p_sim.add_argument(
        "--shard-cache",
        default=None,
        metavar="PATH",
        help="existing shard cache whose real layout feeds the host-pipeline "
        "prediction: its codec, chunk size, and the manifest's measured "
        "compressed/raw ratio (instead of the analytic per-codec default); "
        "a codec=none cache prices mapped staging",
    )

    p_dec = sub.add_parser("decompose", help="CP-ALS on a tensor")
    _add_engine_args(p_dec)
    p_dec.add_argument("--iters", type=int, default=20)

    p_plan = sub.add_parser(
        "plan",
        help="explain a decompose without running it: resolve the "
        "execution plan, print the per-phase pricing, and the plan "
        "fingerprint `repro decompose` would report for the same flags",
    )
    _add_engine_args(p_plan)
    p_plan.add_argument(
        "--json", action="store_true",
        help="print the serialized ExecutionPlan JSON instead of the "
        "human-readable summary (pipe to a file, rebuild with "
        "repro.engine.plan.build_executor)",
    )

    p_cache = sub.add_parser(
        "cache", help="build an out-of-core shard cache from a tensor"
    )
    csrc = p_cache.add_mutually_exclusive_group(required=True)
    csrc.add_argument("--tns", help="FROSTT .tns file to convert")
    csrc.add_argument(
        "--dataset",
        choices=["amazon", "patents", "reddit", "twitch"],
        help="scaled synthetic instance of a Table 3 dataset",
    )
    p_cache.add_argument(
        "output", help="output path (.npz is appended when it has no suffix)"
    )
    p_cache.add_argument("--nnz", type=int, default=100_000, help="scaled nnz")
    p_cache.add_argument("--seed", type=int, default=0)
    p_cache.add_argument(
        "--max-nnz",
        type=int,
        default=None,
        help="refuse to materialize a .tns with more nonzeros than this",
    )
    p_cache.add_argument(
        "--codec",
        choices=["none", "zlib", "lzma", "zstd"],
        default="none",
        help="frame codec: none (default) stores raw frames a reader "
        "memory-maps; zlib/lzma/zstd compress every chunk for cold "
        "storage (zstd needs the optional 'zstandard' package)",
    )
    p_cache.add_argument(
        "--chunk-nnz",
        type=_chunk_nnz_arg,
        default=None,
        help="nonzeros per chunk, the unit of CRC checks and of "
        "decompression (default: 65536)",
    )
    p_cache.add_argument(
        "--memory-budget",
        type=_size_arg,
        default=None,
        metavar="BYTES",
        help="build the cache with the external-sort streaming "
        "builder under this peak element budget (suffixes k/M/G); with "
        "--tns the input is never materialized, so .tns files larger "
        "than RAM convert fine (--dataset instances are generated in "
        "memory first, then streamed)",
    )

    p_prof = sub.add_parser(
        "profile",
        help="calibrate this host: microbenchmarks -> versioned JSON "
        "profile consumed by simulate/decompose (--host-profile or the "
        "REPRO_HOST_PROFILE env var)",
    )
    p_prof.add_argument(
        "output",
        nargs="?",
        default=None,
        help="output JSON path (default: ~/.cache/repro/host_profile.json)",
    )
    p_prof.add_argument(
        "--quick",
        action="store_true",
        help="small working sets and repeat counts (about a second; CI "
        "mode) — bandwidth numbers are noisier than the full run",
    )

    p_cl = sub.add_parser(
        "cluster",
        help="multi-node execution: run a node server the cluster backend "
        "connects to (`repro decompose --backend cluster --cluster-nodes`)",
    )
    cl_sub = p_cl.add_subparsers(dest="cluster_command", required=True)
    p_cl_node = cl_sub.add_parser(
        "node",
        help="serve one cluster node: listen for a coordinator, run its "
        "work slices through a local streaming pipeline until it "
        "disconnects",
    )
    p_cl_node.add_argument(
        "address",
        metavar="HOST:PORT",
        help="address to listen on (the coordinator's --cluster-nodes "
        "entry for this node)",
    )
    p_cl_node.add_argument(
        "--authkey",
        default=None,
        help="shared connection secret (default: the "
        "REPRO_CLUSTER_AUTHKEY env var, else a fixed development key — "
        "set a real one outside loopback)",
    )

    p_srv = sub.add_parser(
        "serve",
        help="run the always-on multi-tenant decomposition job server "
        "(HTTP; submit jobs with repro.serve.ServiceClient or "
        "`python -m repro.serve.client`)",
    )
    p_srv.add_argument(
        "address",
        metavar="HOST:PORT",
        help="address to listen on, e.g. 127.0.0.1:8752 (port 0 picks an "
        "ephemeral port and prints it)",
    )
    p_srv.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="concurrent decomposition workers (default 2)",
    )
    p_srv.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help="pending jobs buffered before 429 backpressure (default 8)",
    )
    p_srv.add_argument(
        "--host-profile",
        default=None,
        help="measured host profile JSON (repro profile) pinned for every "
        "admission plan; default: REPRO_HOST_PROFILE, else the committed "
        "synthetic default",
    )
    p_srv.add_argument(
        "--mem-budget",
        type=_size_arg,
        default=None,
        metavar="BYTES",
        help="host-memory budget for planned job residency (binary k/M/G "
        "suffixes; default 2G) — jobs planning over it are rejected, jobs "
        "that fit wait for running reservations to drain",
    )
    p_srv.add_argument(
        "--max-predicted-s",
        type=float,
        default=None,
        help="reject jobs whose predicted iteration time exceeds this "
        "many seconds (default: no ceiling)",
    )

    p_tr = sub.add_parser("trace", help="export a Chrome trace of a simulated run")
    p_tr.add_argument("dataset", choices=["amazon", "patents", "reddit", "twitch"])
    p_tr.add_argument("output", help="output .json path")
    p_tr.add_argument("--gpus", type=int, default=4)

    p_bench = sub.add_parser(
        "bench",
        help="trial harness: run benchmark sweeps, compare trajectories",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_brun = bench_sub.add_parser(
        "run",
        help="expand a sweep into scheduled trials and write a "
        "versioned trajectory JSON (the committed BENCH_*.json files)",
    )
    p_brun.add_argument(
        "--out",
        default="BENCH_8.json",
        metavar="PATH",
        help="trajectory output path (default: BENCH_8.json)",
    )
    p_brun.add_argument(
        "--smoke",
        action="store_true",
        help="the CI smoke matrix (tiny tensors, in-process backends "
        "only; seconds) instead of the full committed sweep",
    )
    p_brun.add_argument(
        "--label",
        default=None,
        help="trajectory label recorded in the file (default: the sweep "
        "name)",
    )
    p_brun.add_argument(
        "--only",
        default=None,
        metavar="SUBSTR",
        help="run only cells whose key contains this substring",
    )
    p_brun.add_argument(
        "--nnz",
        type=int,
        default=None,
        help="override the sweep's target nonzero count per dataset",
    )
    p_brun.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override timed repeats per trial",
    )
    p_brun.add_argument(
        "--warmup",
        type=int,
        default=None,
        help="override untimed warmup iterations per trial",
    )
    p_brun.add_argument(
        "--previous",
        default=None,
        metavar="PATH",
        help="previous trajectory to print a comparison report against "
        "after the run",
    )
    p_brun.add_argument(
        "--host-profile",
        default=None,
        metavar="PATH",
        help="measured host profile JSON for the per-trial predictions "
        "(default: REPRO_HOST_PROFILE, else the committed synthetic "
        "calibration)",
    )
    p_brep = bench_sub.add_parser(
        "report",
        help="render the markdown report of a trajectory file, optionally "
        "compared against a previous one (bootstrap verdict per cell)",
    )
    p_brep.add_argument(
        "trajectory",
        nargs="?",
        default="BENCH_8.json",
        help="trajectory JSON written by `repro bench run` "
        "(default: BENCH_8.json)",
    )
    p_brep.add_argument(
        "--previous",
        default=None,
        metavar="PATH",
        help="previous trajectory to compare against",
    )
    p_brep.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the markdown to this file",
    )
    return parser


def _cmd_experiments(args) -> int:
    from repro.bench import experiments as E

    table = {
        "table1": E.table1,
        "table3": E.table3,
        "fig5": E.fig5,
        "fig6": E.fig6,
        "fig7": E.fig7,
        "fig8": E.fig8,
        "fig9": E.fig9,
        "fig10": E.fig10,
        "headline": E.headline,
    }
    names = args.names or list(table)
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {list(table)}")
        return 2
    for name in names:
        print(table[name]().text)
        print()
    return 0


def _cmd_datasets(_args) -> int:
    from repro.bench.experiments import table3

    print(table3().text)
    return 0


def _cmd_simulate(args) -> int:
    from repro.baselines.registry import make_backend
    from repro.core.config import AmpedConfig
    from repro.bench.harness import run_amped_model
    from repro.datasets.workload import paper_workload
    from repro.simgpu.kernel import KernelCostModel
    from repro.util.humanize import format_seconds

    if args.batch_size not in (None, "auto") and args.method != "amped":
        print(
            f"--batch-size applies to the AMPED streaming engine only; "
            f"method {args.method!r} does not support it"
        )
        return 2
    cfg = AmpedConfig(
        n_gpus=args.gpus,
        rank=args.rank,
        shards_per_gpu=args.shards_per_gpu,
        batch_size=args.batch_size,
    )
    wl = paper_workload(args.dataset, cfg, KernelCostModel())
    if args.method == "amped":
        res = run_amped_model(wl, cfg)
    elif args.method == "equal-nnz":
        res = make_backend(args.method, workload=wl, n_gpus=args.gpus).simulate()
    else:
        res = make_backend(args.method, workload=wl).simulate()
    if not res.ok:
        print(f"{args.method} on {args.dataset}: {res.error}")
        return 1
    print(
        f"{args.method} on {args.dataset} ({res.n_gpus} device(s)): "
        f"{format_seconds(res.total_time)} per MTTKRP iteration"
    )
    for key, share in res.breakdown().items():
        print(f"  {key:<15} {share:6.1%}")
    if args.method == "amped":
        from repro.engine.plan import cache_plan_inputs, plan_execution
        from repro.errors import ReproError

        plan_cfg = cfg.replace(host_profile=args.host_profile)
        codec_ratio = None
        if args.shard_cache:
            try:
                plan_cfg, codec_ratio = cache_plan_inputs(
                    plan_cfg, args.shard_cache
                )
            except ReproError as exc:
                print(f"--shard-cache: {exc}")
                return 2
        eplan = plan_execution(
            plan_cfg, wl, cost=KernelCostModel(), codec_ratio=codec_ratio
        )
        plan = eplan.time_plan
        print(
            f"host pipeline ({plan['backend']}, "
            f"{plan['n_batches']} batches): "
            f"{format_seconds(plan['total_s'])} predicted per iteration"
        )
        if codec_ratio is not None:
            print(
                f"  staging priced at measured codec ratio "
                f"{codec_ratio:.3f} ({plan_cfg.cache_codec} manifest)"
            )
        print(f"plan fingerprint: {eplan.fingerprint}")
    return 0


def _load_cli_tensor(args):
    """(tensor, label) from --tns / --dataset flags shared by subcommands."""
    from repro.datasets.profiles import profile_by_name
    from repro.datasets.synthetic import materialize
    from repro.tensor.io import read_tns

    max_nnz = getattr(args, "max_nnz", None)
    if args.tns:
        return read_tns(args.tns, max_nnz=max_nnz), args.tns
    tensor = materialize(profile_by_name(args.dataset), args.nnz, seed=args.seed)
    return tensor, f"{args.dataset} (scaled to {tensor.nnz} nnz)"


class _UsageError(Exception):
    """Contradictory command-line flags: the command prints it, exits 2."""


def _engine_cache(args):
    """``(shard cache path or None, whether it exists)`` from the flags of
    :func:`_add_engine_args`, after rejecting the combinations neither
    ``decompose`` nor ``plan`` can run (:class:`_UsageError`)."""
    from repro.tensor.io import shard_cache_path

    if args.out_of_core and not args.shard_cache:
        raise _UsageError(
            "--out-of-core requires --shard-cache PATH: build one with "
            "`repro cache` (or pass --shard-cache to `repro decompose` and "
            "it is built from the input tensor first)"
        )
    if args.cluster_nodes and args.backend != "cluster":
        raise _UsageError("--cluster-nodes requires --backend cluster")
    # Resolve suffix-less paths the way the writer will (np.savez appends
    # .npz), so the existence check, the build, and the open all agree.
    cache = shard_cache_path(args.shard_cache) if args.shard_cache else None
    cache_exists = cache is not None and cache.is_file()
    if not (args.tns or args.dataset or cache_exists):
        raise _UsageError(
            "no tensor source: pass --tns/--dataset, or point --shard-cache "
            "at an existing cache"
        )
    return cache, cache_exists


def _engine_config(args, cache):
    """The one :class:`AmpedConfig` builder behind ``decompose`` and
    ``plan`` (so equal flags give equal plan fingerprints)."""
    from repro.core.config import AmpedConfig

    cluster_addresses = None
    if args.cluster_nodes:
        cluster_addresses = tuple(
            a.strip() for a in args.cluster_nodes.split(",") if a.strip()
        )
    return AmpedConfig(
        n_gpus=args.gpus,
        rank=args.rank,
        batch_size=args.batch_size,
        backend=args.backend,
        workers=args.workers,
        kernel=args.kernel,
        prefetch=args.prefetch,
        out_of_core=args.out_of_core,
        shard_cache=None if cache is None else str(cache),
        host_profile=args.host_profile,
        nodes=args.nodes,
        cluster_addresses=cluster_addresses,
    )


def _resident_tensor(args, cache):
    """(tensor, label) for an in-memory run: ``--tns``/``--dataset``, else
    the existing shard cache loaded into memory."""
    if args.tns or args.dataset:
        return _load_cli_tensor(args)
    from repro.engine.source import open_shard_source

    source = open_shard_source(cache, n_gpus=args.gpus)
    return source.tensor_view().as_coo(), f"{cache} (loaded into memory)"


def _cmd_decompose(args) -> int:
    from repro.core.amped import AmpedMTTKRP
    from repro.cpd.als import cp_als
    from repro.errors import ConfigConflictError, TensorFormatError
    from repro.tensor.io import write_shard_cache_v2
    from repro.util.humanize import format_seconds

    try:
        cache, cache_exists = _engine_cache(args)
        config = _engine_config(args, cache)
    except (_UsageError, ConfigConflictError) as exc:
        print(exc)
        return 2
    tensor = name = None
    if cache is not None and not cache_exists:
        tensor, name = _load_cli_tensor(args)
        cache = write_shard_cache_v2(tensor, cache, codec="none")
        print(f"wrote shard cache {cache} (nnz={tensor.nnz}, codec=none)")
    try:
        if args.out_of_core:
            ex = AmpedMTTKRP.from_shard_cache(cache, config, name="cli")
        elif tensor is None:
            tensor, name = _resident_tensor(args, cache)
    except TensorFormatError as exc:  # say, a version-1 cache
        print(f"--shard-cache: {exc}")
        return 2
    if args.out_of_core:
        tensor = ex.tensor
        name = f"{cache} (out-of-core, {type(ex.source).__name__})"
        print(
            f"streaming out of core at batch_size="
            f"{ex.engine.batch_size} (resolved from "
            f"{config.batch_size!r})"
        )
    else:
        ex = AmpedMTTKRP(tensor, config, name="cli")
    print(f"tensor: {name}, shape={tensor.shape}, nnz={tensor.nnz}")
    # The executor's ExecutionPlan carries the concrete backend even when
    # the user asked for --backend auto (resolution happens once, at
    # construction, through the plan layer).
    backend_name, backend_workers = ex.plan.backend, ex.plan.workers
    resolved_note = (
        " (resolved from 'auto' by the host cost model)"
        if args.backend == "auto"
        else ""
    )
    cluster_note = ""
    if backend_name == "cluster":
        where = (
            f"{len(ex.config.cluster_addresses)} remote node(s)"
            if ex.config.cluster_addresses
            else f"{ex.config.nodes or 2} loopback node process(es)"
        )
        cluster_note = f", {where}"
    print(
        f"engine backend: {backend_name} (workers={backend_workers}, "
        f"prefetch={'on' if config.prefetch else 'off'}{cluster_note})"
        f"{resolved_note}"
    )
    resolved_kernel = ex.plan.kernel
    kernel_note = ""
    if args.kernel == "auto":
        kernel_note = " (resolved from 'auto' by the host cost model)"
    elif resolved_kernel != args.kernel:
        kernel_note = f" (fallback: {args.kernel!r} unavailable on this host)"
    print(f"engine kernel: {resolved_kernel}{kernel_note}")
    print(f"plan fingerprint: {ex.plan.fingerprint}")
    with ex:  # close pools / shared memory / cache maps deterministically
        res = cp_als(
            tensor, rank=args.rank, n_iters=args.iters, seed=args.seed,
            mttkrp=ex.mttkrp,
        )
        print(
            f"CP-ALS rank {args.rank}: fit={res.final_fit:.4f} after "
            f"{res.n_iters} iterations ({format_seconds(res.wall_seconds)} wall)"
        )
        sim = ex.simulate()
        host_plan = ex.plan.time_plan
    print(
        f"simulated MTTKRP iteration on {args.gpus} GPU(s): "
        f"{format_seconds(sim.total_time)}"
    )
    print(
        f"predicted host pipeline ({host_plan['backend']}, "
        f"{host_plan['n_batches']} batches): "
        f"{format_seconds(host_plan['total_s'])} per iteration"
    )
    if backend_name == "cluster" and ex._cluster_backend is not None:
        stats = ex._cluster_backend.comm_stats
        measured = stats["seconds"] / max(stats["calls"], 1)
        print(
            f"cluster exchange ({ex._cluster_backend.allgather}): measured "
            f"{format_seconds(measured)} per MTTKRP call "
            f"({stats['calls']} calls, {stats['bytes']} bytes total); "
            f"model predicts {format_seconds(host_plan['comm_s'])} "
            f"comm per iteration"
        )
    return 0


def _cmd_plan(args) -> int:
    """Explain-style planning: resolve + price, print, never execute.

    Builds its config with the same :func:`_engine_config` as ``repro
    decompose`` and resolves it through the plan layer — so the printed
    fingerprint is the one a subsequent ``repro decompose`` with the same
    flags reports. No engine, backend pool, or cluster node process is
    constructed; a shard cache is opened for metadata only.
    """
    from repro.engine.plan import plan_shard_cache, plan_tensor
    from repro.errors import ConfigConflictError, ReproError, TensorFormatError
    from repro.util.humanize import format_bytes, format_seconds

    try:
        cache, cache_exists = _engine_cache(args)
        config = _engine_config(args, cache)
    except (_UsageError, ConfigConflictError) as exc:
        print(exc)
        return 2
    if args.out_of_core and not cache_exists:
        print(f"--shard-cache {cache} does not exist; build it with `repro cache`")
        return 2
    try:
        if args.out_of_core:
            plan = plan_shard_cache(cache, config, name="cli")
        else:
            tensor, _ = _resident_tensor(args, cache)
            plan = plan_tensor(tensor, config, name="cli")
    except TensorFormatError as exc:  # say, a version-1 cache
        refused = "--tns" if args.tns and not args.out_of_core else "--shard-cache"
        print(f"{refused}: {exc}")
        return 2
    except ReproError as exc:
        print(f"planning failed: {exc}")
        return 1
    if args.json:
        print(plan.to_json(), end="")
        return 0
    t = plan.time_plan
    print(
        f"execution plan ({plan.source}"
        f"{'' if plan.shard_cache is None else ' ' + plan.shard_cache}):"
    )
    print(
        f"  tensor: shape={plan.shape}, nnz={plan.nnz}, "
        f"{plan.n_gpus} GPU(s) x {plan.shards_per_gpu} shards ({plan.policy})"
    )
    topo = ""
    if plan.backend == "cluster":
        where = (
            f"{len(plan.cluster_addresses)} remote node(s)"
            if plan.cluster_addresses
            else f"{plan.nodes} loopback node process(es)"
        )
        topo = f", {where}, allgather={plan.allgather}"
    print(
        f"  backend: {plan.backend} (workers={plan.workers}, "
        f"prefetch={'on' if plan.prefetch else 'off'}{topo})"
    )
    print(f"  kernel: {plan.kernel}")
    print(
        f"  batch_size: "
        f"{'whole shards' if plan.batch_size is None else plan.batch_size}"
    )
    if plan.cache_codec is not None:
        ratio = (
            "analytic default" if plan.codec_ratio is None
            else f"measured ratio {plan.codec_ratio:.3f}"
        )
        print(f"  cache codec: {plan.cache_codec} ({ratio})")
    print(f"  host profile: {plan.host_profile_hash}")
    print(
        f"  predicted host pipeline ({t['backend']}, {t['n_batches']} "
        f"batches): {format_seconds(t['total_s'])} per iteration"
    )
    phases = [
        "compute_s", "dispatch_s", "ipc_s", "stall_s", "prefetch_overhead_s",
    ]
    if plan.backend == "cluster":
        phases += ["comm_s", "scatter_s"]
    for key in phases:
        print(f"    {key:<20} {format_seconds(float(t[key]))}")
    total_mem = sum(plan.memory_plan.values())
    print(f"  planned host residency: {format_bytes(total_mem)}")
    for key, val in plan.memory_plan.items():
        print(f"    {key:<20} {format_bytes(val)}")
    print(f"plan fingerprint: {plan.fingerprint}")
    return 0


def _cmd_cache(args) -> int:
    from repro.tensor.io import (
        DEFAULT_CHUNK_NNZ,
        write_shard_cache_streaming,
        write_shard_cache_v2,
    )

    codec = args.codec
    chunk_nnz = args.chunk_nnz or DEFAULT_CHUNK_NNZ
    if args.memory_budget is not None:
        # External-sort streaming build. A .tns input streams straight off
        # disk; a --dataset instance is generated in memory first (the
        # builder still sorts it under the budget).
        if args.tns:
            source, name = args.tns, args.tns
        else:
            source, name = _load_cli_tensor(args)
        res = write_shard_cache_streaming(
            source,
            args.output,
            memory_budget=args.memory_budget,
            codec=codec,
            chunk_nnz=chunk_nnz,
            max_nnz=args.max_nnz,
        )
        print(
            f"wrote shard cache {res.path} for {name}: shape={res.shape}, "
            f"nnz={res.nnz} (codec={codec}, chunk_nnz={chunk_nnz}; "
            f"external sort: {res.n_runs} run(s) of <= {res.run_nnz} "
            f"elements, peak {res.peak_run_nnz} resident)"
        )
        path = res.path
    else:
        tensor, name = _load_cli_tensor(args)
        path = write_shard_cache_v2(
            tensor, args.output, codec=codec, chunk_nnz=chunk_nnz
        )
        print(
            f"wrote shard cache {path} for {name}: shape={tensor.shape}, "
            f"nnz={tensor.nnz} ({tensor.nmodes} mode-sorted copies; "
            f"codec={codec}, chunk_nnz={chunk_nnz})"
        )
    print(
        f"stream it with: repro decompose --shard-cache {path} --out-of-core"
    )
    return 0


def _cmd_profile(args) -> int:
    from repro.engine.profile import write_host_profile
    from repro.util.humanize import format_bytes, format_seconds

    path, profile = write_host_profile(args.output, quick=args.quick)
    mode = "quick" if args.quick else "full"
    print(f"calibrated {profile.hostname} ({mode} microbenchmarks):")
    print(f"  memcpy            {format_bytes(profile.memcpy_bandwidth)}/s")
    print(f"  batch reduce      {format_bytes(profile.reduce_bandwidth)}/s streamed")
    for kname, bw in sorted(profile.kernel_reduce_bandwidth.items()):
        print(f"  kernel {kname:<11}{format_bytes(bw)}/s streamed")
    print(f"  mmap stage        {format_bytes(profile.mmap_read_bandwidth)}/s")
    print(f"  chunk read        {format_bytes(profile.chunk_read_bandwidth)}/s")
    for codec, bw in sorted(profile.decompress_bandwidth.items()):
        print(f"  decompress {codec:<7}{format_bytes(bw)}/s raw")
    print(
        f"  dispatch          serial {format_seconds(profile.serial_dispatch_s)}, "
        f"thread {format_seconds(profile.thread_dispatch_s)}, "
        f"process {format_seconds(profile.process_task_s)} per batch"
    )
    print(f"  pipe              {format_bytes(profile.pipe_bandwidth)}/s")
    print(
        f"  loopback socket   {format_bytes(profile.loopback_bandwidth)}/s, "
        f"{format_seconds(profile.loopback_latency_s)} latency, "
        f"{format_seconds(profile.loopback_frame_overhead_s)} per frame"
    )
    print(f"  thread efficiency {profile.thread_efficiency:.2f}")
    print(
        f"  process efficiency {profile.process_efficiency:.2f} "
        f"(measured ProcessBackend sweep)"
    )
    print(f"  cache fraction    {profile.stream_cache_fraction:.4f}")
    print(f"wrote host profile {path} (version {profile.version})")
    print(
        f"consume it with `repro decompose --backend auto --host-profile "
        f"{path}` or `export REPRO_HOST_PROFILE={path}`"
    )
    return 0


def _cmd_bench(args) -> int:
    from repro.errors import ReproError

    if args.bench_command == "run":
        from repro.bench.runner import DEFAULT_SWEEP, SMOKE_SWEEP, run_bench
        from repro.bench.trajectory import load_trajectory, render_report

        sweep = dict(SMOKE_SWEEP if args.smoke else DEFAULT_SWEEP)
        if args.nnz is not None:
            sweep["nnz"] = [args.nnz]
        if args.repeats is not None:
            sweep["repeats"] = args.repeats
        if args.warmup is not None:
            sweep["warmup"] = args.warmup
        label = args.label or ("smoke" if args.smoke else "default")
        previous = None
        if args.previous:
            try:
                previous = load_trajectory(args.previous)
            except ReproError as exc:
                print(f"--previous: {exc}")
                return 2
        try:
            path, trajectory = run_bench(
                sweep,
                out=args.out,
                label=label,
                host_profile=args.host_profile,
                only=args.only,
                progress=print,
            )
        except ReproError as exc:
            print(f"bench run failed: {exc}")
            return 1
        if not trajectory["trials"]:
            print(
                f"no trials matched --only {args.only!r}; nothing written "
                f"beyond an empty trajectory at {path}"
            )
            return 2
        print(
            f"wrote trajectory {path} ({len(trajectory['trials'])} trials, "
            f"label={label!r}, rev={trajectory['git_rev'] or 'unknown'})"
        )
        if previous is not None:
            print()
            print(render_report(trajectory, previous))
        return 0

    # bench report
    from repro.bench.trajectory import load_trajectory, render_report

    try:
        trajectory = load_trajectory(args.trajectory)
        previous = (
            load_trajectory(args.previous) if args.previous else None
        )
    except ReproError as exc:
        print(str(exc))
        return 2
    text = render_report(trajectory, previous)
    print(text, end="")
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"(also wrote {args.out})")
    return 0


def _cmd_cluster(args) -> int:
    from repro.engine.cluster import parse_cluster_address, serve_node
    from repro.errors import ReproError

    # only "node" exists today; argparse enforces the subcommand
    try:
        host, port = parse_cluster_address(args.address)
    except ReproError as exc:
        print(str(exc))
        return 2
    print(
        f"serving cluster node on {host}:{port} "
        f"(stop with Ctrl-C; one coordinator connection per run)"
    )
    try:
        serve_node(host, port, authkey=args.authkey)
    except KeyboardInterrupt:
        print("node interrupted")
        return 130
    except ReproError as exc:
        print(f"cluster node failed: {exc}")
        return 1
    print("coordinator disconnected; node exiting")
    return 0


def _cmd_serve(args) -> int:
    from repro.engine.cluster import parse_cluster_address
    from repro.errors import ReproError
    from repro.serve.server import (
        DEFAULT_MAX_JOBS,
        DEFAULT_QUEUE_DEPTH,
        serve_forever,
    )
    from repro.serve.admission import DEFAULT_MEMORY_BUDGET

    try:
        host, port = parse_cluster_address(args.address)
    except ReproError as exc:
        print(str(exc))
        return 2

    def ready(bound):
        print(
            f"serving decomposition jobs on http://{bound[0]}:{bound[1]} "
            f"(POST /jobs; stop with POST /shutdown or Ctrl-C)"
        )

    try:
        serve_forever(
            host,
            port,
            max_jobs=args.max_jobs or DEFAULT_MAX_JOBS,
            queue_depth=args.queue_depth or DEFAULT_QUEUE_DEPTH,
            host_profile=args.host_profile,
            memory_budget=args.mem_budget or DEFAULT_MEMORY_BUDGET,
            max_predicted_s=args.max_predicted_s,
            ready=ready,
        )
    except ReproError as exc:
        print(f"serve failed: {exc}")
        return 1
    except OSError as exc:
        print(f"cannot bind {host}:{port}: {exc}")
        return 1
    print("server drained and stopped")
    return 0


def _cmd_trace(args) -> int:
    from repro.core.config import AmpedConfig
    from repro.bench.harness import run_amped_model
    from repro.datasets.workload import paper_workload
    from repro.simgpu.kernel import KernelCostModel
    from repro.simgpu.trace_export import write_chrome_trace

    cfg = AmpedConfig(n_gpus=args.gpus)
    wl = paper_workload(args.dataset, cfg, KernelCostModel())
    res = run_amped_model(wl, cfg)
    path = write_chrome_trace(res.timeline, args.output)
    print(f"wrote {len(res.timeline.spans)} spans to {path} (chrome://tracing)")
    return 0


_COMMANDS = {
    "experiments": _cmd_experiments,
    "datasets": _cmd_datasets,
    "simulate": _cmd_simulate,
    "decompose": _cmd_decompose,
    "plan": _cmd_plan,
    "cache": _cmd_cache,
    "profile": _cmd_profile,
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "cluster": _cmd_cluster,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
