"""Tests for the per-host calibration profiler (repro.engine.profile).

One real quick-mode run (a second or two: it spawns a worker process and
times actual kernels) validates the whole measurement path; the rest of the
module exercises persistence and the profile's consumption contract without
re-measuring.
"""

from __future__ import annotations

import pytest

from repro.engine.costmodel import (
    HOST_PROFILE_VERSION,
    HostProfile,
    load_host_profile,
)
from repro.engine.profile import profile_host, write_host_profile


@pytest.fixture(scope="module")
def measured() -> HostProfile:
    return profile_host(quick=True)


def test_quick_profile_is_valid_and_marked(measured):
    assert isinstance(measured, HostProfile)  # __post_init__ validated it
    assert measured.version == HOST_PROFILE_VERSION
    assert measured.quick is True
    assert measured.hostname


def test_quick_profile_measures_every_channel(measured):
    assert measured.memcpy_bandwidth > 0
    assert measured.reduce_bandwidth > 0
    assert measured.mmap_read_bandwidth > 0
    assert measured.chunk_read_bandwidth > 0
    # zlib/lzma ship with CPython; zstd only when zstandard is installed
    assert {"none", "zlib", "lzma"} <= set(measured.decompress_bandwidth)
    assert 0.0 < measured.thread_efficiency <= 1.0
    assert 0.0 < measured.process_efficiency <= 1.0
    assert measured.stream_cache_fraction is not None
    assert 0.0 < measured.stream_cache_fraction <= 1.0


def test_process_efficiency_is_measured_not_default(measured):
    # The v1 bug: profile_host shipped the dataclass default (0.70)
    # untouched. A real ProcessBackend sweep essentially never lands on
    # the documented default exactly; assert the field was assigned by
    # measurement (any clamped value is fine, the default is not).
    field_default = HostProfile.__dataclass_fields__[
        "process_efficiency"
    ].default
    assert field_default == 0.70
    assert measured.process_efficiency != field_default


def test_every_available_kernel_is_calibrated(measured):
    from repro.tensor.kernelreg import available_kernels

    assert set(measured.kernel_reduce_bandwidth) == set(available_kernels())
    for name, rate in measured.kernel_reduce_bandwidth.items():
        assert rate > 0, name
    # the numpy tier's dedicated rate and the legacy reduce channel are
    # the same measurement, so the single-axis model stays consistent
    assert measured.kernel_reduce_bandwidth["numpy"] == (
        measured.reduce_bandwidth
    )
    assert measured.kernel_rate("numpy") == measured.reduce_bandwidth


def test_unmeasured_kernel_rate_falls_back(measured):
    assert measured.kernel_rate("numba") == (
        measured.kernel_reduce_bandwidth.get(
            "numba", measured.reduce_bandwidth
        )
    )


def test_quick_profile_measures_loopback_socket(measured):
    """v4: the socket transport the cluster backend runs on is calibrated
    — a real loopback echo, not the dataclass defaults."""
    defaults = HostProfile.__dataclass_fields__
    assert measured.loopback_bandwidth > 0
    assert measured.loopback_latency_s > 0
    assert measured.loopback_bandwidth != (
        defaults["loopback_bandwidth"].default
    )
    assert measured.loopback_latency_s != (
        defaults["loopback_latency_s"].default
    )


def test_quick_profile_measures_frame_overhead(measured):
    """v5: the per-frame hop overhead (pickle framing + cold scheduler
    wakeup) is measured in the echo child, not the calibrated synthetic
    default — it is what closes the BENCH_8 comm underprediction."""
    defaults = HostProfile.__dataclass_fields__
    assert measured.loopback_frame_overhead_s > 0
    assert measured.loopback_frame_overhead_s != (
        defaults["loopback_frame_overhead_s"].default
    )
    # a framed hop costs more than the bare wire latency and stays far
    # below one full iteration — sanity bounds, not a pin
    assert measured.loopback_frame_overhead_s < 0.1


def test_stale_profile_version_rejected_with_pointer(tmp_path, measured):
    """A pre-frame-overhead (v4) profile priced exchange hops with
    latency + bytes/bandwidth alone — the ~5–8× loopback underprediction;
    loading one must point at re-profiling instead of silently mispricing
    comm."""
    import json

    from repro.errors import ReproError

    data = json.loads(measured.to_json())
    data["version"] = HOST_PROFILE_VERSION - 1
    data.pop("loopback_frame_overhead_s")
    path = tmp_path / "v4.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ReproError, match="re-run `repro profile`"):
        load_host_profile(path)


def test_decompress_rates_are_plausibly_ordered(measured):
    rates = measured.decompress_bandwidth
    # raw "none" frames are views/copies: far faster than real codecs
    assert rates["none"] > rates["zlib"]
    assert rates["none"] > rates["lzma"]


def test_write_round_trip(tmp_path, measured, monkeypatch):
    # write_host_profile re-measures; route through save/load on the
    # already-measured profile to keep the suite fast.
    path = measured.save(tmp_path / "sub" / "host.json")
    assert path.is_file()
    assert load_host_profile(path) == measured


def test_write_host_profile_quick(tmp_path):
    path, profile = write_host_profile(tmp_path / "w.json", quick=True)
    assert path == tmp_path / "w.json"
    assert load_host_profile(path) == profile


def test_profile_feeds_the_timing_model(measured):
    from repro.core.amped import AmpedMTTKRP
    from repro.core.config import AmpedConfig
    from repro.engine.costmodel import host_time_plan
    from repro.simgpu.kernel import KernelCostModel
    from repro.tensor.generate import zipf_coo

    tensor = zipf_coo((20, 15, 10), 400, exponents=1.0, seed=1)
    ex = AmpedMTTKRP(tensor, AmpedConfig(n_gpus=2, rank=4, shards_per_gpu=2))
    plan = host_time_plan(ex.workload, ex.config, KernelCostModel(), measured)
    assert plan["total_s"] > 0.0


def test_decompress_rates_time_the_v2_frame_decode(monkeypatch):
    """Each codec is priced through the reader's own decode of a frame
    written as a new cache writes it: the codec's level, frame filter on."""
    from repro.engine import profile
    from repro.tensor import io_v2

    encoded, decoded = [], []
    compress, decode = profile._compress_frame, profile._decode_frame

    def traced_compress(codec, filter_name, arr):
        encoded.append((codec.name, codec.level, filter_name))
        return compress(codec, filter_name, arr)

    def traced_decode(codec, filter_name, *args):
        decoded.append((codec.name, filter_name))
        return decode(codec, filter_name, *args)

    monkeypatch.setattr(profile, "_compress_frame", traced_compress)
    monkeypatch.setattr(profile, "_decode_frame", traced_decode)
    rates = profile._measure_decompress(1 << 16, 2, memcpy_bw=1e10)
    codecs = [c for c in io_v2.available_codecs() if c != "none"]
    assert set(rates) == {"none", *codecs}
    assert rates["none"] == 1e10
    assert sorted(encoded) == sorted(
        (c, io_v2._resolve_codec(c).level, "colshuffle") for c in codecs
    )
    assert ("zlib", 1, "colshuffle") in encoded
    assert {c for c, _ in decoded} == set(codecs)
    assert all(f == "colshuffle" for _, f in decoded)
