"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload process2-twitch --seed 1 \\
        --seconds 50 --trace 0

Run it from the root of the repository: the program is imported from
``src/``, and run artefacts (compiled kernels, shard caches, Chrome
traces) go to ``.perfbench_out/``. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones and writes a Chrome trace.
Human-readable lines go to standard error; standard output carries only
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="minimum measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplier on the workload's nonzero count "
                         "(the benchmark's own tests use tiny scales)")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        _log(f"error: the program's sources are missing ({src / 'repro'})")
        return 2
    sys.path.insert(0, str(src))
    # Keep every file the run writes inside the checkout, and keep the
    # plan independent of the caller's host-profile and kernel overrides.
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    os.environ["REPRO_CC_CACHE_DIR"] = str(OUT / "cc")
    for var in ("REPRO_HOST_PROFILE", "REPRO_KERNEL_DISABLE",
                "REPRO_STREAM_CACHE_FRACTION"):
        os.environ.pop(var, None)

    import harness

    if args.workload not in harness.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(harness.WORKLOADS)}")

    try:
        result = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            out_dir=OUT, scale=args.scale, log=_log,
        )
    finally:
        # The shared-memory tracker process that the process backend starts
        # would otherwise outlive this run by a moment; stop and reap it.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
