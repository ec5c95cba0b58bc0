"""Tests for sweep expansion and the trial runner (repro.bench.trials/runner).

Sweep expansion and spec validation are pure and run everywhere; the
real-execution tests run one tiny trial per source kind (resident and
compressed) so the whole measure→record→trajectory path is exercised in a
few hundred milliseconds.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import DEFAULT_SWEEP, SMOKE_SWEEP, run_bench
from repro.bench.trials import (
    TRIAL_RECORD_VERSION,
    TrialSpec,
    expand_sweep,
    run_trial,
)
from repro.bench.trajectory import load_trajectory
from repro.errors import ReproError


class TestTrialSpec:
    def test_cell_key_encodes_identity(self):
        spec = TrialSpec(
            dataset="twitch", nnz=2000, source="chunked", codec="zlib",
            backend="thread", workers=2, prefetch=True, rank=8,
        )
        assert spec.cell == "twitch/2000/chunked+zlib/threadx2/pf/r8"

    def test_cell_key_pins_kernel_only_when_explicit(self):
        # auto cells keep the pre-registry key layout so old trajectories
        # line up; pinned tiers get their own cells
        auto = TrialSpec(nnz=500, rank=4)
        assert auto.kernel == "auto"
        assert "/k-" not in auto.cell
        pinned = TrialSpec(nnz=500, rank=4, kernel="numpy")
        assert pinned.cell == auto.cell + "/k-numpy"
        assert pinned.fingerprint() != auto.fingerprint()

    def test_bad_kernel_rejected(self):
        with pytest.raises(ReproError, match="kernel"):
            TrialSpec(kernel="fortran")

    def test_fingerprint_stable_and_sensitive(self):
        a = TrialSpec()
        assert a.fingerprint() == TrialSpec().fingerprint()
        assert a.fingerprint() != TrialSpec(rank=9).fingerprint()

    def test_validation(self):
        with pytest.raises(ReproError, match="source"):
            TrialSpec(source="carrier-pigeon")
        with pytest.raises(ReproError, match="backend"):
            TrialSpec(backend="gpu")
        with pytest.raises(ReproError, match="codec"):
            TrialSpec(source="inmem", codec="zlib")
        with pytest.raises(ReproError, match="repeats"):
            TrialSpec(repeats=0)
        with pytest.raises(ReproError, match="warmup"):
            TrialSpec(warmup=-1)

    def test_nodes_axis_only_for_cluster(self):
        # the node count is a cluster-only knob, and only cluster cells
        # grow the /nN key segment — pre-cluster cells stay byte-identical
        with pytest.raises(ReproError, match="cluster"):
            TrialSpec(backend="thread", nodes=2)
        with pytest.raises(ReproError, match="nodes"):
            TrialSpec(backend="cluster", nodes=0)
        plain = TrialSpec(nnz=500, rank=4)
        assert "/n" not in plain.cell.replace("/nopf", "")
        clustered = TrialSpec(
            nnz=500, rank=4, backend="cluster", workers=1, nodes=2
        )
        assert clustered.cell.endswith("/n2")
        assert clustered.fingerprint() != plain.fingerprint()


class TestExpandSweep:
    def test_cartesian_product_size(self):
        specs = expand_sweep({
            "datasets": ["twitch"],
            "nnz": [1000, 2000],
            "sources": ["inmem", "chunked:zlib"],
            "backends": ["serial", "thread:4"],
            "prefetch": [False, True],
            "ranks": [4],
            "kernels": ["auto", "numpy"],
        })
        assert len(specs) == 2 * 2 * 2 * 2 * 2
        assert len({s.cell for s in specs}) == len(specs)
        kernels = {s.kernel for s in specs}
        assert kernels == {"auto", "numpy"}

    def test_source_and_backend_suffix_parsing(self):
        specs = expand_sweep({
            "sources": ["chunked:lzma"], "backends": ["process:3"],
        })
        (spec,) = specs
        assert spec.source == "chunked" and spec.codec == "lzma"
        assert spec.backend == "process" and spec.workers == 3

    def test_parallel_backends_default_two_workers(self):
        specs = expand_sweep({"backends": ["thread", "process", "serial"]})
        workers = {s.backend: s.workers for s in specs}
        assert workers == {"thread": 2, "process": 2, "serial": 1}

    def test_unknown_axis_rejected(self):
        with pytest.raises(ReproError, match="unknown sweep axes"):
            expand_sweep({"dataset": ["twitch"]})  # typo: singular

    def test_nodes_axis_expands_cluster_only(self):
        specs = expand_sweep({
            "backends": ["serial", "cluster:1"],
            "nodes": [2, 3],
        })
        by_backend = {}
        for s in specs:
            by_backend.setdefault(s.backend, []).append(s.nodes)
        assert by_backend["serial"] == [None]
        assert sorted(by_backend["cluster"]) == [2, 3]

    def test_builtin_sweeps_expand(self):
        smoke = expand_sweep(SMOKE_SWEEP)
        full = expand_sweep(DEFAULT_SWEEP)
        assert 0 < len(smoke) < len(full)
        # the CI gate must not spawn process pools
        assert all(s.backend != "process" for s in smoke)
        assert any(s.backend == "process" for s in full)
        # both builtin sweeps carry the kernel axis: auto cells (old key
        # layout, comparable across trajectories) plus pinned numpy cells
        # and a 2-node loopback cluster column for the comm oracle gate
        for specs in (smoke, full):
            assert {s.kernel for s in specs} == {"auto", "numpy"}
            assert any(s.backend == "cluster" and s.nodes == 2 for s in specs)


class TestRunTrial:
    def test_inmem_record_schema(self):
        spec = TrialSpec(nnz=500, rank=4, warmup=0, repeats=2)
        rec = run_trial(spec)
        assert rec["record_version"] == TRIAL_RECORD_VERSION
        assert rec["cell"] == spec.cell
        assert rec["config_fingerprint"] == spec.fingerprint()
        assert len(rec["wall_times_s"]) == 2
        assert all(t > 0 for t in rec["wall_times_s"])
        assert rec["median_s"] > 0
        assert rec["predicted_total_s"] > 0
        assert rec["predicted"]["total_s"] == rec["predicted_total_s"]
        p, m = rec["predicted_total_s"], rec["median_s"]
        assert rec["prediction_error"] == pytest.approx(
            p / m - 1 if p >= m else -(m / p - 1)
        )
        assert rec["codec_ratio"] is None  # resident source
        assert rec["peak_rss_bytes"] > 0
        assert len(rec["host_profile_hash"]) == 16
        assert rec["resolved_backend"] == "serial"
        assert rec["resolved_kernel"] in ("numpy", "numba", "cc")

    def test_chunked_trial_records_measured_ratio(self, tmp_path):
        spec = TrialSpec(
            nnz=500, rank=4, source="chunked", codec="zlib",
            warmup=0, repeats=1,
        )
        rec = run_trial(spec, workdir=tmp_path)
        assert rec["codec_ratio"] is not None
        assert 0.0 < rec["codec_ratio"] < 1.0
        assert rec["predicted"]["staging_read_s"] > 0

    def test_mmap_trial_maps_a_none_cache(self, tmp_path):
        """The ``mmap`` cell keeps its name but streams a mapped
        ``codec="none"`` cache, priced as a mapped read with no
        decompress term."""
        from repro.tensor.io_v2 import load_shard_cache_v2

        spec = TrialSpec(
            nnz=500, rank=4, source="mmap", warmup=0, repeats=1,
        )
        rec = run_trial(spec, workdir=tmp_path)
        assert "/mmap/" in rec["cell"]
        reader = load_shard_cache_v2(tmp_path / "trial_cache.npz")
        try:
            assert reader.codec_name == "none"
        finally:
            reader.close()
        assert 0.0 < rec["codec_ratio"] <= 1.0
        assert rec["predicted"]["staging_read_s"] > 0
        assert rec["predicted"]["decompress_s"] == 0.0

    def test_auto_backend_resolves_in_record(self):
        spec = TrialSpec(nnz=500, rank=4, backend="auto", warmup=0, repeats=1)
        rec = run_trial(spec)
        assert rec["resolved_backend"] in ("serial", "thread", "process")

    def test_pinned_kernel_trial_records_numpy(self):
        spec = TrialSpec(nnz=500, rank=4, kernel="numpy", warmup=0, repeats=1)
        rec = run_trial(spec)
        assert rec["resolved_kernel"] == "numpy"
        assert rec["cell"].endswith("/k-numpy")
        assert rec["comm"] is None  # single-host cells carry no comm record

    def test_cluster_trial_records_comm_oracle(self):
        """A cluster cell measures the factor-row exchange and records it
        next to the model's prediction with a symmetric signed ratio error
        (|error| < 1 means within 2x, on either side)."""
        from repro.bench.trials import _symmetric_ratio_error

        spec = TrialSpec(
            nnz=500, rank=4, backend="cluster", workers=1, nodes=2,
            warmup=1, repeats=2,
        )
        rec = run_trial(spec)
        assert rec["resolved_backend"] == "cluster"
        comm = rec["comm"]
        assert comm["measured_s"] > 0
        assert comm["predicted_s"] > 0
        assert comm["bytes_per_iteration"] > 0
        assert comm["error"] == pytest.approx(_symmetric_ratio_error(
            comm["predicted_s"], comm["measured_s"]
        ))
        # the exchange is a slice of the whole iteration, never more
        assert comm["measured_s"] <= rec["median_s"] * spec.repeats

    @pytest.mark.slow
    def test_smoke_loopback_cell_error_within_tolerance(self):
        """The bug this PR closes: with the v5 per-frame overhead charged
        per exchange hop, the 2-node loopback smoke cell's comm prediction
        lands within 2x of the measurement (|symmetric error| < 1) instead
        of the ~5-8x underprediction band BENCH_8 committed (which the
        old one-sided error definition reported as a mere -0.79..-0.88)."""
        spec = TrialSpec(
            nnz=2000, rank=4, backend="cluster", workers=1, nodes=2,
            warmup=1, repeats=3,
        )
        rec = run_trial(spec)
        comm = rec["comm"]
        assert abs(comm["error"]) < 1.0, comm

    def test_symmetric_error_definition(self):
        """5x misses read as ±4 on either side; the old definition pinned
        every underprediction inside (-1, 0)."""
        from repro.bench.trials import _symmetric_ratio_error

        assert _symmetric_ratio_error(1.0, 5.0) == pytest.approx(-4.0)
        assert _symmetric_ratio_error(5.0, 1.0) == pytest.approx(4.0)
        assert _symmetric_ratio_error(1.0, 1.0) == 0.0
        assert abs(_symmetric_ratio_error(1.0, 1.9)) < 1.0
        assert abs(_symmetric_ratio_error(1.0, 2.1)) > 1.0


class TestRunBench:
    def test_only_filter_and_trajectory_output(self, tmp_path):
        lines = []
        path, traj = run_bench(
            {
                "nnz": [500],
                "sources": ["inmem"],
                "backends": ["serial", "thread:2"],
                "ranks": [4],
                "warmup": 0,
                "repeats": 2,
            },
            out=tmp_path / "traj.json",
            label="unit",
            only="serial",
            progress=lines.append,
        )
        assert path.is_file()
        assert len(traj["trials"]) == 1
        assert "serialx1" in traj["trials"][0]["cell"]
        assert traj["label"] == "unit"
        assert lines  # progress callback was driven
        # the file round-trips through the validated loader
        assert load_trajectory(path)["trials"] == traj["trials"]
