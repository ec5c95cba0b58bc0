"""The benchmark's own tests: tiny-size smoke runs and the correctness gate.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
TINY = "0.003"  # about 3k nonzeros: every workload finishes in seconds

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--scale", TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_harness_workloads_and_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for key, table in (("end_to_end", harness.END_TO_END),
                       ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(table)


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for v in result["metrics"].values():
        assert np.isfinite(v["value"])
    if trace:
        assert (ROOT / ".perfbench_out" / f"trace-{workload}-seed7.json").is_file()


def test_corrupted_mttkrp_counts_as_a_failed_operation(monkeypatch, tmp_path):
    def corrupted(ex, factors, mode):
        out = ex.mttkrp(factors, mode)
        out[0, 0] += 1e-6 * (1.0 + abs(out[0, 0]))
        return out

    monkeypatch.setattr(harness, "checked_mttkrp", corrupted)
    result = harness.run_workload(
        "process2-twitch", 7, 0.0, False, out_dir=tmp_path,
        scale=float(TINY), log=lambda msg: None,
    )
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["decompose_s"]["value"] > 0


def test_close_that_leaves_a_thread_running_counts_as_failed(monkeypatch, tmp_path):
    stop = threading.Event()
    real_setup = harness._setup

    def leaky_setup(*args):
        ex = real_setup(*args)
        real_close = ex.close

        def close():
            real_close()
            threading.Thread(target=stop.wait, daemon=True).start()

        ex.close = close
        return ex

    monkeypatch.setattr(harness, "_setup", leaky_setup)
    try:
        result = harness.run_workload(
            "ooc-amazon-zlib", 7, 0.0, False, out_dir=tmp_path,
            scale=float(TINY), log=lambda msg: None,
        )
    finally:
        stop.set()
    assert result["correct"] is False
    assert result["failed"] == harness.MIN_REPS  # every close, the last too


def test_self_times_subtract_direct_children_only():
    from repro.simgpu.trace import Category, Timeline

    tl = Timeline()
    tl.add(-1, Category.HOST, 0.0, 10.0, "outer")
    tl.add(-1, Category.HOST, 1.0, 5.0, "mid")
    tl.add(-1, Category.COMPUTE, 2.0, 3.0, "leaf[0]")
    tl.add(-1, Category.COMPUTE, 6.0, 7.0, "leaf[1]")
    assert harness.self_times(tl) == pytest.approx(
        {"outer": 5.0, "mid": 3.0, "leaf": 2.0}
    )


def test_missing_program_sources_exit_nonzero_without_a_result(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    (copy / "run.py").write_text((BENCH / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "process2-twitch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
