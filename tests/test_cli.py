"""Tests for the command-line interface."""

import argparse
import json

import numpy as np
import pytest

from repro.cli import _add_engine_args, build_parser, main
from repro.tensor.generate import lowrank_coo
from repro.tensor.io import write_tns


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "amazon" in out and "1.7B" in out

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "table1"]) == 0
        out = capsys.readouterr().out
        assert "AMPED (ours)" in out

    def test_experiments_unknown(self, capsys):
        assert main(["experiments", "fig99"]) == 2

    def test_simulate_amped(self, capsys):
        assert main(["simulate", "amazon", "--shards-per-gpu", "4"]) == 0
        out = capsys.readouterr().out
        assert "amped on amazon" in out

    def test_simulate_amped_batched(self, capsys):
        assert main(
            ["simulate", "amazon", "--shards-per-gpu", "4", "--batch-size", "1000000"]
        ) == 0
        assert "amped on amazon" in capsys.readouterr().out

    def test_simulate_batch_size_rejected_for_baselines(self, capsys):
        rc = main(["simulate", "amazon", "--method", "blco", "--batch-size", "64"])
        assert rc == 2
        assert "AMPED streaming engine only" in capsys.readouterr().out

    def test_simulate_oom_baseline_fails_cleanly(self, capsys):
        rc = main(["simulate", "reddit", "--method", "flycoo-gpu"])
        assert rc == 1
        assert "runtime error" in capsys.readouterr().out

    def test_decompose_synthetic(self, capsys):
        rc = main(
            [
                "decompose",
                "--dataset", "patents",
                "--nnz", "3000",
                "--rank", "4",
                "--iters", "3",
                "--gpus", "2",
            ]
        )
        assert rc == 0
        assert "CP-ALS rank 4" in capsys.readouterr().out

    def test_decompose_tns_file(self, tmp_path, capsys):
        tensor = lowrank_coo((12, 10, 8), 400, rank=2, seed=0)
        path = tmp_path / "t.tns"
        write_tns(path, tensor)
        rc = main(
            ["decompose", "--tns", str(path), "--rank", "2", "--iters", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fit=" in out

    def test_decompose_requires_a_tensor_source(self, capsys):
        rc = main(["decompose", "--rank", "2"])
        assert rc == 2
        assert "no tensor source" in capsys.readouterr().out

    def test_decompose_batch_size_accepts_auto_and_none(self, capsys):
        for value in ("auto", "none"):
            rc = main(
                [
                    "decompose",
                    "--dataset", "twitch",
                    "--nnz", "2000",
                    "--rank", "3",
                    "--iters", "2",
                    "--gpus", "2",
                    "--batch-size", value,
                ]
            )
            assert rc == 0
            assert "fit=" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_decompose_backend_and_prefetch(self, backend, capsys):
        """Every backend decomposes through the CLI and lands on the same
        fit as the serial default (bit-identical engine contract)."""
        args = [
            "decompose",
            "--dataset", "twitch",
            "--nnz", "1500",
            "--rank", "3",
            "--iters", "2",
            "--gpus", "2",
            "--seed", "3",
        ]
        assert main(args) == 0
        base_out = capsys.readouterr().out
        workers = [] if backend == "serial" else ["--workers", "2"]
        rc = main(args + ["--backend", backend, "--prefetch"] + workers)
        assert rc == 0
        out = capsys.readouterr().out
        assert f"engine backend: {backend}" in out
        assert "prefetch=on" in out
        def fit(text: str) -> str:
            line = next(l for l in text.splitlines() if "fit=" in l)
            return line.split("fit=")[1].split()[0]

        assert fit(out) == fit(base_out)

    @pytest.mark.parametrize("command", ["decompose", "plan"])
    def test_workers_without_pool_backend_exits_2(self, command, capsys):
        """``--workers N`` sizes a named backend; the serial default takes
        only 1, so asking it for a pool is a usage error naming the fix."""
        rc = main(
            [command, "--dataset", "twitch", "--nnz", "1500", "--gpus", "2",
             "--workers", "2"]
        )
        assert rc == 2
        assert 'backend="thread"' in capsys.readouterr().out

    def test_decompose_rejects_unknown_backend(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="backend must be one of"):
            main(
                [
                    "decompose",
                    "--dataset", "twitch",
                    "--nnz", "1500",
                    "--backend", "quantum",
                ]
            )

    def test_decompose_rejects_garbage_batch_size(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "decompose", "--dataset", "twitch",
                    "--batch-size", "sometimes",
                ]
            )
        assert "'auto', or 'none'" in capsys.readouterr().err


def _engine_flags() -> list[argparse.Action]:
    parser = argparse.ArgumentParser()
    _add_engine_args(parser)
    return [a for a in parser._actions if a.option_strings and a.dest != "help"]


def _sample_argv(action: argparse.Action) -> list[str]:
    """One explicit, non-default setting of an engine flag."""
    flag = action.option_strings[0]
    if action.nargs == 0:  # store_true
        return [flag]
    if action.choices:
        return [flag, action.choices[-1]]
    return [flag, "7" if action.type is not None else "x.npz"]


class TestSharedEngineFlags:
    """``decompose`` and ``plan`` take the same engine flags, with the same
    defaults and the same parsing — both declare them via
    ``_add_engine_args``."""

    @pytest.mark.parametrize(
        "action", _engine_flags(), ids=lambda a: a.option_strings[0]
    )
    def test_same_default_and_parse(self, action):
        parser = build_parser()
        for argv in ([], _sample_argv(action)):
            planned = parser.parse_args(["plan", *argv])
            executed = parser.parse_args(["decompose", *argv])
            assert getattr(planned, action.dest) == getattr(
                executed, action.dest
            )
        assert getattr(planned, action.dest) != action.default

    def test_plan_adds_only_json_and_decompose_only_iters(self):
        parser = build_parser()
        shared = {a.dest for a in _engine_flags()}
        planned = set(vars(parser.parse_args(["plan"])))
        executed = set(vars(parser.parse_args(["decompose"])))
        assert planned - shared == {"command", "json"}
        assert executed - shared == {"command", "iters"}


class TestPlanDecomposeParity:
    """``repro plan`` prints the plan fingerprint ``repro decompose`` then
    executes under, for the same flags (both build one config)."""

    FLAGS = ["--dataset", "twitch", "--nnz", "3000", "--rank", "4", "--gpus", "2"]

    @staticmethod
    def _fingerprints(args, capsys) -> tuple[str, str]:
        def run(argv):
            assert main(argv) == 0
            lines = [
                l for l in capsys.readouterr().out.splitlines()
                if l.startswith("plan fingerprint:")
            ]
            assert len(lines) == 1
            return lines[0].split()[-1]

        return run(["plan", *args]), run(["decompose", *args, "--iters", "1"])

    @pytest.mark.parametrize(
        "extra",
        [[], ["--backend", "thread", "--workers", "2", "--prefetch"]],
        ids=["resident-default", "thread2-prefetch"],
    )
    def test_resident(self, extra, capsys):
        planned, executed = self._fingerprints(self.FLAGS + extra, capsys)
        assert planned == executed

    def test_out_of_core_v2_zlib_cache(self, tmp_path, capsys):
        cache = tmp_path / "v2.npz"
        assert main(
            ["cache", "--dataset", "twitch", "--nnz", "3000", "--codec",
             "zlib", "--chunk-nnz", "1024", str(cache)]
        ) == 0
        capsys.readouterr()
        planned, executed = self._fingerprints(
            ["--shard-cache", str(cache), "--out-of-core", "--rank", "4",
             "--gpus", "2"],
            capsys,
        )
        assert planned == executed

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_cache_loaded_into_memory(self, tmp_path, capsys, codec):
        """``--shard-cache`` without ``--out-of-core`` loads the cache
        resident; both commands plan that tensor the same way."""
        cache = tmp_path / f"{codec}.npz"
        assert main(
            ["cache", "--dataset", "twitch", "--nnz", "3000", "--codec",
             codec, str(cache)]
        ) == 0
        capsys.readouterr()
        planned, executed = self._fingerprints(
            ["--shard-cache", str(cache), "--rank", "4", "--gpus", "2"],
            capsys,
        )
        assert planned == executed

    def test_cc_kernel(self, capsys):
        from repro.tensor.kernelreg import available_kernels

        if "cc" not in available_kernels():
            pytest.skip("cc kernel tier unavailable on this host")
        planned, executed = self._fingerprints(
            self.FLAGS + ["--kernel", "cc"], capsys
        )
        assert planned == executed

    def test_plan_has_no_flag_decompose_lacks(self, capsys):
        """A plan no decompose can execute is unprintable: ``plan`` takes
        no ``--shards-per-gpu``, exactly like ``decompose``."""
        for command in ("plan", "decompose"):
            with pytest.raises(SystemExit) as exc:
                main([command, *self.FLAGS, "--shards-per-gpu", "8"])
            assert exc.value.code == 2
            assert "--shards-per-gpu" in capsys.readouterr().err


class TestOutOfCoreCommands:
    def _fit(self, out: str) -> str:
        for line in out.splitlines():
            if "fit=" in line:
                return line.split("fit=")[1].split()[0]
        raise AssertionError(f"no fit in output:\n{out}")

    def test_out_of_core_requires_shard_cache(self, capsys):
        rc = main(
            ["decompose", "--dataset", "twitch", "--nnz", "2000", "--out-of-core"]
        )
        assert rc == 2
        assert "--shard-cache" in capsys.readouterr().out

    def test_cache_then_out_of_core_decompose_matches_in_memory(
        self, tmp_path, capsys
    ):
        """.tns → shard cache → streaming decompose reproduces the in-memory
        fit (the CI smoke flow, via the CLI)."""
        tensor = lowrank_coo((14, 11, 9), 500, rank=2, noise=0.02, seed=4)
        tns = tmp_path / "t.tns"
        write_tns(tns, tensor)
        args = ["--rank", "2", "--iters", "4", "--gpus", "2", "--seed", "1"]
        assert main(["decompose", "--tns", str(tns)] + args) == 0
        fit_memory = self._fit(capsys.readouterr().out)

        cache = tmp_path / "t.npz"
        assert main(["cache", "--tns", str(tns), str(cache)]) == 0
        out = capsys.readouterr().out
        assert "wrote shard cache" in out and cache.is_file()

        rc = main(
            ["decompose", "--shard-cache", str(cache), "--out-of-core"] + args
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "out-of-core" in out and "streaming out of core" in out
        assert self._fit(out) == fit_memory

    def test_decompose_suffixless_cache_path(self, tmp_path, capsys):
        """np.savez appends .npz; the CLI must build once and then reuse."""
        cache = tmp_path / "noext"  # no .npz suffix
        args = [
            "decompose", "--dataset", "twitch", "--nnz", "2000",
            "--rank", "3", "--iters", "2", "--gpus", "2",
            "--shard-cache", str(cache), "--out-of-core",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "wrote shard cache" in out
        assert (tmp_path / "noext.npz").is_file()
        assert main(args) == 0  # second run reuses, does not rebuild
        assert "wrote shard cache" not in capsys.readouterr().out

    def test_decompose_builds_missing_cache(self, tmp_path, capsys):
        cache = tmp_path / "auto_built.npz"
        rc = main(
            [
                "decompose",
                "--dataset", "twitch",
                "--nnz", "2000",
                "--rank", "3",
                "--iters", "2",
                "--gpus", "2",
                "--shard-cache", str(cache),
                "--out-of-core",
            ]
        )
        assert rc == 0
        assert cache.is_file()
        assert "wrote shard cache" in capsys.readouterr().out

    def test_decompose_from_existing_cache_in_memory(self, tmp_path, capsys):
        """--shard-cache alone (no --tns/--dataset) is a valid tensor source."""
        tensor = lowrank_coo((12, 10, 8), 400, rank=2, seed=0)
        tns = tmp_path / "t.tns"
        write_tns(tns, tensor)
        cache = tmp_path / "t.npz"
        assert main(["cache", "--tns", str(tns), str(cache)]) == 0
        capsys.readouterr()
        rc = main(
            [
                "decompose", "--shard-cache", str(cache),
                "--rank", "2", "--iters", "2", "--gpus", "2",
            ]
        )
        assert rc == 0
        assert "fit=" in capsys.readouterr().out

    def test_cache_v2_flags_build_and_stream(self, tmp_path, capsys):
        """`repro cache --codec --chunk-nnz --memory-budget` builds a
        compressed cache via the external-sort builder, and decompose
        streams it both out of core and in memory."""
        from repro.tensor.io import load_shard_cache_v2

        tensor = lowrank_coo((12, 10, 8), 400, rank=2, seed=0)
        tns = tmp_path / "t.tns"
        write_tns(tns, tensor)
        cache = tmp_path / "v2.npz"
        rc = main(
            ["cache", "--tns", str(tns), str(cache),
             "--codec", "zlib", "--chunk-nnz", "128",
             "--memory-budget", "8k"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrote shard cache" in out and "external sort" in out
        with load_shard_cache_v2(cache) as reader:
            assert (reader.codec_name, reader.chunk_nnz) == ("zlib", 128)
        rc = main(
            ["decompose", "--shard-cache", str(cache), "--out-of-core",
             "--rank", "3", "--iters", "2", "--gpus", "2", "--prefetch"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "CompressedChunkSource" in out and "fit=" in out
        # an existing v2 cache also works as an in-memory tensor source
        rc = main(
            ["decompose", "--shard-cache", str(cache),
             "--rank", "3", "--iters", "2", "--gpus", "2"]
        )
        assert rc == 0
        assert "fit=" in capsys.readouterr().out

    def test_cache_v2_in_memory_build(self, tmp_path, capsys):
        """--codec without --memory-budget takes the in-memory v2 writer."""
        cache = tmp_path / "v2mem.npz"
        rc = main(
            ["cache", "--dataset", "twitch", "--nnz", "2000",
             "--codec", "zlib", str(cache)]
        )
        assert rc == 0
        assert "wrote shard cache" in capsys.readouterr().out

    def test_cache_and_decompose_write_none_caches_by_default(
        self, tmp_path, capsys
    ):
        """Without --codec, `repro cache` and `decompose --shard-cache` on
        a missing cache write a mapped codec=none cache."""
        from repro.tensor.io import load_shard_cache_v2

        built = tmp_path / "built.npz"
        assert main(
            ["cache", "--dataset", "twitch", "--nnz", "2000", str(built)]
        ) == 0
        assert "codec=none" in capsys.readouterr().out
        written = tmp_path / "written.npz"
        assert main(
            ["decompose", "--dataset", "twitch", "--nnz", "2000",
             "--shard-cache", str(written), "--out-of-core",
             "--rank", "2", "--iters", "1", "--gpus", "2"]
        ) == 0
        assert "codec=none" in capsys.readouterr().out
        for path in (built, written):
            with load_shard_cache_v2(path) as reader:
                assert reader.codec_name == "none"
                assert sorted(reader._maps) == sorted(reader.array_names())

    @pytest.mark.parametrize("out_of_core", [False, True])
    def test_decompose_refuses_version_1_cache(
        self, tmp_path, capsys, out_of_core
    ):
        v1 = tmp_path / "v1.npz"
        np.savez(v1, version=np.array([1]), shape=np.array([2, 2]))
        rc = main(
            ["decompose", "--shard-cache", str(v1), "--rank", "2",
             "--iters", "1"] + (["--out-of-core"] if out_of_core else [])
        )
        assert rc == 2
        out = capsys.readouterr().out
        assert "version 1" in out and "repro cache" in out

    @pytest.mark.parametrize("out_of_core", [False, True])
    def test_plan_refuses_version_1_cache(self, tmp_path, capsys, out_of_core):
        """``repro plan`` refuses a version-1 cache like ``decompose``:
        exit 2, whether the cache is streamed (``--out-of-core``) or loaded
        resident through ``--shard-cache`` alone."""
        v1 = tmp_path / "v1.npz"
        np.savez(v1, version=np.array([1]), shape=np.array([2, 2]))
        rc = main(
            ["plan", "--shard-cache", str(v1), "--rank", "2"]
            + (["--out-of-core"] if out_of_core else [])
        )
        assert rc == 2
        out = capsys.readouterr().out
        assert out.startswith("--shard-cache:")
        assert "version 1" in out and "repro cache" in out

    def test_cache_bad_memory_budget_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                ["cache", "--dataset", "twitch", str(tmp_path / "c.npz"),
                 "--memory-budget", "lots"]
            )

    @pytest.mark.parametrize("bad", ["0", "-5", "many"])
    def test_cache_bad_chunk_nnz_rejected(self, tmp_path, capsys, bad):
        """--chunk-nnz must be a positive int; 0 must not silently fall
        back to the format default."""
        with pytest.raises(SystemExit):
            main(
                ["cache", "--dataset", "twitch", str(tmp_path / "c.npz"),
                 "--chunk-nnz", bad]
            )

    def test_cache_max_nnz_guard(self, tmp_path, capsys):
        tensor = lowrank_coo((12, 10, 8), 400, rank=2, seed=0)
        tns = tmp_path / "t.tns"
        write_tns(tns, tensor)
        with pytest.raises(Exception, match="max_nnz"):
            main(["cache", "--tns", str(tns), str(tmp_path / "c.npz"),
                  "--max-nnz", "10"])

    def test_trace_export(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "twitch", str(out_path), "--gpus", "2"]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"]


class TestSizeArgParsing:
    """The one canonical size parser behind --memory-budget / --chunk-nnz
    (and AmpedConfig.cache_chunk_nnz): suffixes are case-insensitive, zero
    and negative values are rejected *after* suffix multiplication, and
    every rejection carries the same message."""

    ACCEPTED = [
        ("1024", 1024),
        ("64k", 64 << 10),
        ("64K", 64 << 10),
        ("2m", 2 << 20),
        ("256M", 256 << 20),
        ("4g", 4 << 30),
        ("4G", 4 << 30),
        (" 16k ", 16 << 10),
    ]
    REJECTED = ["0", "0k", "0M", "-1", "-2G", "", "k", "M", "1.5G", "64kb",
                "lots", "1e3"]

    @pytest.mark.parametrize("text,expected", ACCEPTED)
    def test_accepted_literals(self, text, expected):
        from repro.cli import _chunk_nnz_arg, _size_arg

        assert _size_arg(text) == expected
        assert _chunk_nnz_arg(text) == expected

    @pytest.mark.parametrize("text", REJECTED)
    def test_rejected_literals_share_the_canonical_message(self, text):
        import argparse

        from repro.cli import _chunk_nnz_arg, _size_arg

        with pytest.raises(
            argparse.ArgumentTypeError, match="positive integer"
        ) as size_exc:
            _size_arg(text)
        with pytest.raises(
            argparse.ArgumentTypeError, match="positive integer"
        ) as chunk_exc:
            _chunk_nnz_arg(text)
        # identical wording up to the knob name
        assert str(size_exc.value).replace("byte count", "X") == str(
            chunk_exc.value
        ).replace("chunk-nnz", "X")

    def test_config_mirrors_the_cli_validation(self):
        """AmpedConfig.cache_chunk_nnz accepts/rejects the same literals."""
        from repro.core.config import AmpedConfig
        from repro.errors import ReproError

        for text, expected in self.ACCEPTED:
            assert AmpedConfig(cache_chunk_nnz=text).cache_chunk_nnz == expected
        for text in self.REJECTED:
            with pytest.raises(ReproError, match="positive integer"):
                AmpedConfig(cache_chunk_nnz=text)

    def test_chunk_nnz_suffix_builds_a_cache(self, tmp_path, capsys):
        cache = tmp_path / "suffixed.npz"
        rc = main(
            ["cache", "--dataset", "twitch", "--nnz", "2000",
             "--codec", "zlib", "--chunk-nnz", "1k", str(cache)]
        )
        assert rc == 0
        assert "chunk_nnz=1024" in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_quick_writes_and_reports(self, tmp_path, capsys):
        out_path = tmp_path / "host.json"
        assert main(["profile", str(out_path), "--quick"]) == 0
        out = capsys.readouterr().out
        assert "wrote host profile" in out
        assert "--backend auto" in out
        from repro.engine.costmodel import load_host_profile

        profile = load_host_profile(out_path)
        assert profile.quick is True

    def test_decompose_backend_auto_with_profile(self, tmp_path, capsys):
        from repro.engine.costmodel import DEFAULT_HOST_PROFILE

        path = DEFAULT_HOST_PROFILE.save(tmp_path / "p.json")
        rc = main(
            ["decompose", "--dataset", "twitch", "--nnz", "2000",
             "--rank", "3", "--iters", "2", "--gpus", "2",
             "--backend", "auto", "--host-profile", str(path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "resolved from 'auto' by the host cost model" in out
        assert "predicted host pipeline" in out

    def test_decompose_prints_host_prediction(self, capsys):
        rc = main(
            ["decompose", "--dataset", "twitch", "--nnz", "2000",
             "--rank", "3", "--iters", "2", "--gpus", "2"]
        )
        assert rc == 0
        assert "predicted host pipeline (serial" in capsys.readouterr().out

    def test_simulate_prints_host_prediction(self, capsys):
        assert main(["simulate", "amazon", "--shards-per-gpu", "4"]) == 0
        assert "host pipeline" in capsys.readouterr().out

    def test_decompose_bad_host_profile_fails_cleanly(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="cannot read host profile"):
            main(
                ["decompose", "--dataset", "twitch", "--nnz", "2000",
                 "--gpus", "2", "--host-profile",
                 str(tmp_path / "missing.json")]
            )


class TestBenchCommand:
    def test_bench_run_smoke_subset_and_report(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_t.json"
        rc = main(
            ["bench", "run", "--smoke", "--out", str(out_path),
             "--only", "serial", "--nnz", "500", "--repeats", "2",
             "--warmup", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote trajectory" in out
        from repro.bench.trajectory import load_trajectory

        traj = load_trajectory(out_path)
        assert traj["label"] == "smoke"
        assert traj["trials"]
        assert all("serial" in t["cell"] for t in traj["trials"])
        assert all("prediction_error" in t for t in traj["trials"])

        rc = main(
            ["bench", "report", str(out_path),
             "--previous", str(out_path),
             "--out", str(tmp_path / "report.md")]
        )
        assert rc == 0
        report = capsys.readouterr().out
        assert "Mean |prediction error|" in report
        assert "tie" in report  # self-comparison can only tie
        assert (tmp_path / "report.md").is_file()

    def test_bench_run_no_matching_cells(self, tmp_path, capsys):
        rc = main(
            ["bench", "run", "--smoke", "--out",
             str(tmp_path / "empty.json"), "--only", "no-such-cell"]
        )
        assert rc == 2
        assert "no trials matched" in capsys.readouterr().out

    def test_bench_report_missing_file(self, tmp_path, capsys):
        rc = main(["bench", "report", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot read trajectory" in capsys.readouterr().out

    def test_bench_report_version_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "future.json"
        bad.write_text(json.dumps({"version": 999, "trials": []}))
        rc = main(["bench", "report", str(bad)])
        assert rc == 2
        assert "version" in capsys.readouterr().out

    def test_committed_trajectory_is_valid(self):
        """BENCH_8.json at the repo root must stay loadable (CI gate) —
        and so must its predecessors, which the comparison report reads
        as ``--previous``. The current file must carry the 2-node
        loopback cluster cells with the measured-vs-predicted comm
        record."""
        import pathlib

        from repro.bench.trajectory import load_trajectory

        root = pathlib.Path(__file__).resolve().parents[1]
        for name in ("BENCH_8.json", "BENCH_7.json", "BENCH_6.json"):
            committed = root / name
            assert committed.is_file(), f"{name} must be committed"
            traj = load_trajectory(committed)
            assert traj["trials"], "committed trajectory must hold trials"
            for t in traj["trials"]:
                assert "prediction_error" in t
        cluster = [
            t
            for t in load_trajectory(root / "BENCH_8.json")["trials"]
            if t["resolved_backend"] == "cluster"
        ]
        assert cluster, "BENCH_8.json must hold cluster cells"
        for t in cluster:
            assert t["comm"]["measured_s"] > 0
            assert t["comm"]["predicted_s"] > 0
            assert "error" in t["comm"]

    def test_profile_reports_measured_process_efficiency(
        self, tmp_path, capsys
    ):
        assert main(["profile", str(tmp_path / "p.json"), "--quick"]) == 0
        out = capsys.readouterr().out
        assert "process efficiency" in out
        assert "measured ProcessBackend sweep" in out

    def test_simulate_with_v2_cache_uses_measured_ratio(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "sim_cache"
        rc = main(
            ["cache", str(cache), "--dataset", "twitch", "--nnz", "2000",
             "--codec", "zlib"]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(
            ["simulate", "twitch", "--shards-per-gpu", "4",
             "--shard-cache", str(cache)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "staging priced at measured codec ratio" in out
        assert "zlib manifest" in out

    def test_simulate_with_missing_cache_fails_cleanly(
        self, tmp_path, capsys
    ):
        rc = main(
            ["simulate", "twitch", "--shards-per-gpu", "4",
             "--shard-cache", str(tmp_path / "missing.npz")]
        )
        assert rc == 2
        assert "--shard-cache" in capsys.readouterr().out
