"""Tests for FROSTT .tns reading/writing and the shard cache (mapped
``codec="none"`` and compressed frames, the external-sort streaming
builder, and the refusal of version-1 ``.npz`` caches)."""

import dataclasses
import itertools
import json
import re
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from helpers import force_cpus, make_factors

from repro.engine import CompressedChunkSource, InMemorySource, StreamingExecutor

from repro.errors import ReproError, TensorFormatError
from repro.tensor.coo import SparseTensorCOO, index_dtype
from repro.tensor.generate import random_coo
from repro.tensor.io import (
    available_codecs,
    load_shard_cache_v2,
    read_tns,
    write_shard_cache_streaming,
    write_shard_cache_v2,
    write_tns,
)
from repro.tensor import io_v2
from repro.tensor.io_v2 import SHARD_CACHE_V2_MAGIC, _HEADER_BYTES


class TestRoundTrip:
    def test_write_read_roundtrip(self, tmp_path, small_tensor):
        path = tmp_path / "t.tns"
        write_tns(path, small_tensor)
        back = read_tns(path, shape=small_tensor.shape)
        assert back.allclose(small_tensor)

    def test_header_preserved_as_comment(self, tmp_path, tiny_tensor):
        path = tmp_path / "t.tns"
        write_tns(path, tiny_tensor, header="generated by tests\nline two")
        text = path.read_text()
        assert text.startswith("# generated by tests")
        back = read_tns(path, shape=tiny_tensor.shape)
        assert back.allclose(tiny_tensor)

    def test_shape_inferred_from_max_index(self, tmp_path, tiny_tensor):
        path = tmp_path / "t.tns"
        write_tns(path, tiny_tensor)
        back = read_tns(path)
        # inferred shape is the per-mode max + 1
        expected = tuple(int(m) + 1 for m in tiny_tensor.indices.max(axis=0))
        assert back.shape == expected

    def test_narrow_mode_copy_roundtrip(self, tmp_path):
        """A plan's uint16 mode copy writes 65,535 as 65536, not 0."""
        from repro.partition.plan import build_partition_plan

        t = SparseTensorCOO(
            np.array([[(1 << 16) - 1, 1], [0, 2]]), np.array([1.5, 2.5]),
            (1 << 16, 3),
        )
        copy = build_partition_plan(t, 1, n_shards=1).modes[0].tensor
        assert copy.indices.dtype == np.uint16
        path = tmp_path / "t.tns"
        write_tns(path, copy)
        assert path.read_text().splitlines()[-1].startswith("65536 2 ")
        assert read_tns(path, shape=t.shape).allclose(t)


class TestParsing:
    def test_one_based_indices(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1 5.0\n2 3 4 -1.5\n")
        t = read_tns(path)
        assert t.nnz == 2
        assert t.indices.min() == 0
        dense = t.to_dense()
        assert dense[0, 0, 0] == 5.0
        assert dense[1, 2, 3] == -1.5

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("# comment\n\n% other comment\n1 1 2.5\n")
        t = read_tns(path)
        assert t.nnz == 1

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("0 1 1.0\n")
        with pytest.raises(TensorFormatError, match="1-based"):
            read_tns(path)

    def test_inconsistent_columns_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1 1.0\n1 1 2.0\n")
        with pytest.raises(TensorFormatError, match="inconsistent"):
            read_tns(path)

    def test_empty_file_needs_shape(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("# nothing\n")
        with pytest.raises(TensorFormatError, match="empty"):
            read_tns(path)
        t = read_tns(path, shape=(3, 3))
        assert t.nnz == 0

    def test_values_only_line_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1.5\n")
        with pytest.raises(TensorFormatError):
            read_tns(path)


class TestStreamingReader:
    def test_multi_chunk_read_matches_single_chunk(self, tmp_path, monkeypatch):
        """Forcing a tiny chunk size exercises the streaming concatenation."""
        import repro.tensor.io as io_mod

        tensor = SparseTensorCOO(
            np.stack(
                [np.arange(100) % 9, np.arange(100) % 7, np.arange(100) % 5],
                axis=1,
            ).astype(np.int64),
            np.linspace(-1.0, 1.0, 100),
            (9, 7, 5),
        )
        path = tmp_path / "t.tns"
        write_tns(path, tensor)
        whole = read_tns(path, shape=tensor.shape)
        monkeypatch.setattr(io_mod, "_TNS_CHUNK_LINES", 7)
        chunked = read_tns(path, shape=tensor.shape)
        assert np.array_equal(chunked.indices, whole.indices)
        assert np.array_equal(chunked.values, whole.values)

    def test_max_nnz_guard(self, tmp_path, small_tensor):
        path = tmp_path / "t.tns"
        write_tns(path, small_tensor)
        # at the limit: fine
        read_tns(path, max_nnz=small_tensor.nnz)
        with pytest.raises(TensorFormatError, match="max_nnz"):
            read_tns(path, max_nnz=small_tensor.nnz - 1)
        # the guard message points at the out-of-core path
        with pytest.raises(ReproError, match="out of core"):
            read_tns(path, max_nnz=1)
        with pytest.raises(TensorFormatError, match="max_nnz must be"):
            read_tns(path, max_nnz=-3)

    def test_guard_fires_before_full_materialization(self, tmp_path, monkeypatch):
        """The reader must stop at the guard, not after parsing everything."""
        import repro.tensor.io as io_mod

        path = tmp_path / "t.tns"
        path.write_text("".join(f"{i + 1} 1 1.0\n" for i in range(1000)))
        calls = []
        real = io_mod._parse_tns_chunk
        monkeypatch.setattr(
            io_mod, "_TNS_CHUNK_LINES", 10,
        )
        monkeypatch.setattr(
            io_mod,
            "_parse_tns_chunk",
            lambda rows, p: calls.append(len(rows)) or real(rows, p),
        )
        with pytest.raises(TensorFormatError, match="max_nnz"):
            read_tns(path, max_nnz=25)
        assert sum(calls) <= 30  # only the chunks before the guard tripped

    @pytest.mark.parametrize("text,max_nnz", [
        ("1 1 1.0\n1 2\n", None),            # inconsistent column counts
        ("# header\n5\n", None),             # no value column
        ("0 1 1.0\n", None),                 # 0-based index
        ("1 1 1.0\n2 2 2.0\n3 3 3.0\n", 2),  # over the max_nnz guard
        ("1 1 1.0\n", -1),                   # invalid guard
    ])
    def test_streaming_builder_shares_the_parser(
        self, tmp_path, text, max_nnz
    ):
        """read_tns and the v2 external-sort builder reject a malformed
        file with the same error, raised by the same parser."""
        path = tmp_path / "bad.tns"
        path.write_text(text)
        with pytest.raises(TensorFormatError) as direct:
            read_tns(path, max_nnz=max_nnz)
        with pytest.raises(TensorFormatError) as built:
            write_shard_cache_streaming(
                path, tmp_path / "bad.npz", memory_budget=1 << 20,
                max_nnz=max_nnz,
            )
        assert str(built.value) == str(direct.value)
        assert not (tmp_path / "bad.npz").exists()


# ----------------------------------------------------------------------
# Shard cache v2: chunked/compressed frames + external-sort builder
# ----------------------------------------------------------------------
def _flip_byte(path, offset):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


def _truncate_frames(path, cut_bytes):
    """Cut ``cut_bytes`` off the end of the frame region while keeping the
    manifest intact (re-appended, header pointer patched) — the on-disk
    shape of an interrupted copy whose directory survived."""
    raw = path.read_bytes()
    moff = int.from_bytes(raw[len(SHARD_CACHE_V2_MAGIC):_HEADER_BYTES], "little")
    manifest = raw[moff:]
    frames = raw[_HEADER_BYTES:moff]
    cut = frames[: max(0, len(frames) - cut_bytes)]
    new_moff = _HEADER_BYTES + len(cut)
    path.write_bytes(
        SHARD_CACHE_V2_MAGIC
        + new_moff.to_bytes(8, "little")
        + cut
        + manifest
    )
    return len(manifest)


def _last_frame(reader):
    """(array name, chunk id) of the file's physically last chunk frame."""
    return max(
        (
            (name, i)
            for name, meta in reader.manifest["arrays"].items()
            for i in range(len(meta["chunks"]))
        ),
        key=lambda nc: reader.manifest["arrays"][nc[0]]["chunks"][nc[1]][
            "offset"
        ],
    )


class TestShardCacheV2:
    @pytest.mark.parametrize("codec", available_codecs())
    def test_round_trip_mode_sorted_bytes(self, tmp_path, small_tensor, codec):
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "c2.npz", codec=codec, chunk_nnz=64
        )
        with load_shard_cache_v2(path) as reader:
            assert reader.shape == small_tensor.shape
            assert reader.nnz == small_tensor.nnz
            assert reader.codec_name == codec
            for m in range(small_tensor.nmodes):
                s = small_tensor.sorted_by_mode(m)
                assert np.array_equal(
                    np.asarray(reader.array(f"mode{m}_indices")), s.indices
                )
                assert np.array_equal(
                    np.asarray(reader.array(f"mode{m}_values")), s.values
                )
                assert np.array_equal(
                    np.asarray(reader.array(f"mode{m}_keys")), s.indices[:, m]
                )

    def test_chunked_slicing_matches_materialized(self, tmp_path, small_tensor):
        """Slices that cross chunk boundaries equal the eager arrays."""
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "c2.npz", chunk_nnz=37
        )
        with load_shard_cache_v2(path) as reader:
            arr = reader.array("mode0_indices")
            want = small_tensor.sorted_by_mode(0).indices
            assert np.array_equal(arr[5:111], want[5:111])
            assert np.array_equal(arr[36:38], want[36:38])
            assert np.array_equal(arr[:, 2], want[:, 2])
            assert np.array_equal(arr[50], want[50])
            assert np.array_equal(arr[10:90, 1], want[10:90, 1])
            assert arr.shape == want.shape and len(arr) == len(want)

    @pytest.mark.parametrize("part", ["indices", "values"])
    def test_boundary_slice_copies_only_its_rows(self, tmp_path, part):
        """A slice crossing a chunk boundary allocates its own rows, not a
        concatenation of the two covering chunks."""
        tensor = random_coo((60, 50, 40), 20000, seed=3)
        path = write_shard_cache_v2(tensor, tmp_path / "c.npz", chunk_nnz=8192)
        lo, hi = 8000, 8400
        with load_shard_cache_v2(path) as reader:
            arr = reader.array(f"mode1_{part}")
            want = np.asarray(arr)[lo:hi]
            arr[lo:hi]  # decode both covering chunks into the cache
            tracemalloc.start()
            try:
                got = arr[lo:hi]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 2 * want.nbytes

    def test_version_1_archive_and_junk_refused_by_name(self, tmp_path):
        v1 = tmp_path / "v1.npz"
        np.savez(v1, version=np.array([1]), shape=np.array([2, 2]))
        with pytest.raises(TensorFormatError) as err:
            load_shard_cache_v2(v1)
        assert "version 1" in str(err.value)
        assert "repro cache" in str(err.value)
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"neither format")
        with pytest.raises(TensorFormatError, match="not a shard cache"):
            load_shard_cache_v2(junk)
        with pytest.raises(TensorFormatError, match="does not exist"):
            load_shard_cache_v2(tmp_path / "missing.npz")

    def test_zstd_gated_on_missing_package(self, tmp_path, small_tensor):
        """When 'zstandard' is absent the codec is rejected actionably (and
        when present, it simply round-trips — covered above)."""
        if "zstd" in available_codecs():
            pytest.skip("zstandard installed; gating not observable")
        with pytest.raises(TensorFormatError, match="zstandard"):
            write_shard_cache_v2(small_tensor, tmp_path / "z.npz", codec="zstd")

    def test_unknown_codec_rejected(self, tmp_path, small_tensor):
        with pytest.raises(TensorFormatError, match="codec"):
            write_shard_cache_v2(
                small_tensor, tmp_path / "c.npz", codec="brotli"
            )

    def test_bad_chunk_nnz_rejected(self, tmp_path, small_tensor):
        with pytest.raises(TensorFormatError, match="chunk_nnz"):
            write_shard_cache_v2(small_tensor, tmp_path / "c.npz", chunk_nnz=0)

    def test_suffix_appended(self, tmp_path, small_tensor):
        path = write_shard_cache_v2(small_tensor, tmp_path / "noext")
        assert path.name == "noext.npz" and path.is_file()
        with load_shard_cache_v2(tmp_path / "noext") as reader:
            assert reader.path == path

    def test_empty_tensor_round_trips(self, tmp_path):
        empty = SparseTensorCOO(
            np.empty((0, 3), dtype=np.int64), np.empty(0), (4, 5, 6)
        )
        path = write_shard_cache_v2(empty, tmp_path / "empty.npz")
        with load_shard_cache_v2(path) as reader:
            assert reader.nnz == 0 and reader.shape == (4, 5, 6)
            assert np.asarray(reader.array("mode1_indices")).shape == (0, 3)

    def test_closed_reader_is_actionable(self, tmp_path, small_tensor):
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "c.npz", chunk_nnz=16
        )
        reader = load_shard_cache_v2(path)
        arr = reader.array("mode0_values")
        reader.close()
        with pytest.raises(TensorFormatError, match="closed"):
            arr[0:50]

    def test_unknown_array_name_rejected(self, tmp_path, small_tensor):
        path = write_shard_cache_v2(small_tensor, tmp_path / "c.npz")
        with load_shard_cache_v2(path) as reader:
            with pytest.raises(TensorFormatError, match="no array"):
                reader.array("mode9_indices")


#: a version-2 cache (zlib level 6, no frame filter, 64-row chunks) of
#: :func:`_fixture_tensor`, written before the frame filter existed
FIXTURE_V2 = Path(__file__).parent / "data" / "cache_v2_zlib.npz"

#: :func:`_fixture_tensor` as a version-3 cache: shuffled zlib level-1
#: frames, int64 coordinates (written before coordinates were narrowed)
FIXTURE_V3 = Path(__file__).parent / "data" / "cache_v3_zlib.npz"

#: :func:`_fixture_tensor` as a version-4 cache: uint16 coordinates,
#: ``shuffle`` frames deflated by ``zlib.compress`` at level 1 (written
#: before the column shuffle and ``Z_RLE``)
FIXTURE_V4 = Path(__file__).parent / "data" / "cache_v4_zlib.npz"

#: :func:`_fixture_tensor` as a version-5 ``codec="none"`` cache with
#: 64-row chunks, written before arrays had regions: each chunk's indices,
#: values and keys frames follow one another, so no array can be mapped
FIXTURE_V5_NONE = Path(__file__).parent / "data" / "cache_v5_none.npz"


def _fixture_tensor() -> SparseTensorCOO:
    """The tensor in :data:`FIXTURE_V2`: arithmetic, no RNG, so every
    NumPy builds the same one."""
    shape = (9, 7, 5)
    k = np.arange(200, dtype=np.int64)
    lin = (k * 149) % (9 * 7 * 5)
    indices = np.stack(np.unravel_index(lin, shape), axis=1).astype(np.int64)
    return SparseTensorCOO(indices, 1.0 + (k % 13) / 8.0, shape)


def _rewrite_manifest(path, arrays=None, **fields):
    """Set manifest ``fields`` of the v2 cache at ``path`` in place;
    ``arrays`` maps an array name to the fields to set in its entry."""
    raw = path.read_bytes()
    moff = int.from_bytes(raw[len(SHARD_CACHE_V2_MAGIC):_HEADER_BYTES], "little")
    manifest = json.loads(raw[moff:])
    manifest.update(fields)
    for name, entry in (arrays or {}).items():
        manifest["arrays"][name].update(entry)
    path.write_bytes(raw[:moff] + json.dumps(manifest).encode("utf-8"))


def _assert_fixture_reads(
    fixture, *, version, filter_name, level, coords=np.int64, codec="zlib"
):
    """A committed fixture reads back :func:`_fixture_tensor`'s sorted
    copies, with its coordinates at ``coords`` (int64 before version 4)."""
    tensor = _fixture_tensor()
    with load_shard_cache_v2(fixture) as reader:
        assert reader.manifest["version"] == version
        assert ("filter" in reader.manifest) == (version > 2)
        assert reader.filter == filter_name
        assert reader.codec_name == codec and reader.chunk_nnz == 64
        assert reader.manifest["level"] == level
        for m in range(tensor.nmodes):
            s = tensor.sorted_by_mode(m)
            idx = np.asarray(reader.array(f"mode{m}_indices"))
            val = np.asarray(reader.array(f"mode{m}_values"))
            keys = np.asarray(reader.array(f"mode{m}_keys"))
            assert idx.dtype == keys.dtype == coords
            assert np.array_equal(idx, s.indices)
            assert np.array_equal(val, s.values)
            assert np.array_equal(keys, s.indices[:, m])


def _assert_fixture_mttkrp(fixture, prefetch):
    """MTTKRP over a committed fixture is bit-identical to in-memory."""
    tensor = _fixture_tensor()
    factors = make_factors(tensor.shape)
    memory = StreamingExecutor(
        InMemorySource.from_tensor(tensor, 2, shards_per_gpu=2),
        batch_size=50,
    )
    with CompressedChunkSource(
        fixture, n_gpus=2, shards_per_gpu=2
    ) as source, StreamingExecutor(
        source, batch_size=50, prefetch=prefetch
    ) as engine:
        for m in range(tensor.nmodes):
            assert np.array_equal(
                engine.mttkrp(factors, m), memory.mttkrp(factors, m)
            )


class TestShardCacheV2Compat:
    """Version-5 manifests record the column shuffle, version-4 ones narrow
    coordinates and version-3 ones the frame filter; version-4 caches
    (``shuffle``), version-3 caches (int64 coordinates) and version-2
    caches (no filter, raw frames) keep reading, and anything else is
    refused by name."""

    def test_version_2_fixture_reads(self):
        _assert_fixture_reads(FIXTURE_V2, version=2, filter_name="none", level=6)

    def test_version_3_fixture_reads(self):
        _assert_fixture_reads(FIXTURE_V3, version=3, filter_name="shuffle", level=1)

    def test_version_4_fixture_reads(self):
        _assert_fixture_reads(
            FIXTURE_V4, version=4, filter_name="shuffle", level=1,
            coords=np.uint16,
        )

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_version_2_mttkrp_bit_identical_to_in_memory(self, prefetch):
        _assert_fixture_mttkrp(FIXTURE_V2, prefetch)

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_version_3_mttkrp_bit_identical_to_in_memory(self, prefetch):
        _assert_fixture_mttkrp(FIXTURE_V3, prefetch)

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_version_4_mttkrp_bit_identical_to_in_memory(self, prefetch):
        _assert_fixture_mttkrp(FIXTURE_V4, prefetch)

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_interleaved_none_fixture_reads_through_chunk_loads(
        self, monkeypatch, prefetch
    ):
        loads = []
        load = io_v2.ChunkedCacheReader._load

        def traced(self, name, i):
            loads.append((name, i))
            return load(self, name, i)

        monkeypatch.setattr(io_v2.ChunkedCacheReader, "_load", traced)
        with load_shard_cache_v2(FIXTURE_V5_NONE) as reader:
            assert reader._maps == {}
        _assert_fixture_reads(
            FIXTURE_V5_NONE, version=5, filter_name="none", level=0,
            coords=np.uint16, codec="none",
        )
        _assert_fixture_mttkrp(FIXTURE_V5_NONE, prefetch)
        assert {name for name, _ in loads} == {
            f"mode{m}_{part}"
            for m in range(3)
            for part in ("indices", "values", "keys")
        }

    @pytest.mark.parametrize("codec", available_codecs())
    def test_new_caches_record_their_filter(self, tmp_path, codec):
        tensor = _fixture_tensor()
        path = write_shard_cache_v2(
            tensor, tmp_path / "c.npz", codec=codec, chunk_nnz=64
        )
        with load_shard_cache_v2(path) as reader:
            manifest = reader.manifest
            assert manifest["version"] == io_v2.SHARD_CACHE_V2_VERSION == 5
            assert manifest["filter"] == (
                "none" if codec == "none" else "colshuffle"
            )
            if codec == "zlib":
                assert manifest["level"] == 1
                chunk = manifest["arrays"]["mode0_indices"]["chunks"][0]
                frame = path.read_bytes()[
                    chunk["offset"] : chunk["offset"] + chunk["nbytes"]
                ]
                rows = tensor.sorted_by_mode(0).indices[chunk["lo"] : chunk["hi"]]
                # byte k of column c's uint16 items, c = 0..2 within k = 0..1
                items = rows.astype(np.uint16).view(np.uint8)
                planes = items.reshape(-1, 3, 2).transpose(2, 1, 0)
                assert zlib.decompress(frame) == planes.tobytes()
                # a Z_RLE stream: what the strategy writes at any level
                rle = zlib.compressobj(9, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
                assert frame == rle.compress(planes.tobytes()) + rle.flush()
        assert path.read_bytes()[:8] == SHARD_CACHE_V2_MAGIC  # the container

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"version": 6}, "version 6 unsupported"),
            ({"version": "3"}, "version '3' unsupported"),
            ({"filter": "bogus"}, "frame filter 'bogus'"),
            ({"version": 2, "filter": "bogus"}, "frame filter 'bogus'"),
            ({"filter": None}, "frame filter None"),
        ],
    )
    def test_unknown_version_or_filter_named(self, tmp_path, fields, named):
        path = write_shard_cache_v2(_fixture_tensor(), tmp_path / "c.npz")
        _rewrite_manifest(path, **fields)
        with pytest.raises(TensorFormatError, match=named):
            load_shard_cache_v2(path)

    @pytest.mark.parametrize(
        "shape, version, arrays, named",
        [
            (
                (70_000, 7, 5), None,
                {"mode0_indices": "<u2", "mode0_keys": "<u2"},
                "array 'mode0_indices' has dtype '<u2'",
            ),
            (
                None, None,
                {"mode0_indices": "<f4", "mode0_keys": "<f4"},
                "array 'mode0_indices' has dtype '<f4'",
            ),
            (
                None, None, {"mode1_keys": "<u4"},
                "array 'mode1_keys' has dtype '<u4', expected the indices' '<u2'",
            ),
            (None, 3, {}, "array 'mode0_indices' has dtype '<u2'"),
            (None, None, {"mode2_indices": "|O"}, "array 'mode2_indices' has dtype '|O'"),
            (None, None, {"mode0_values": "<f4"}, "array 'mode0_values' has dtype '<f4'"),
            (None, None, {"mode0_indices": ">u2"}, "array 'mode0_indices' has dtype '>u2'"),
        ],
        ids=[
            "uint16-at-extent-70000", "float-indices", "mismatched-keys",
            "v3-claims-uint16", "object", "float32-values", "big-endian",
        ],
    )
    def test_coordinate_dtype_refused_by_name(
        self, tmp_path, shape, version, arrays, named
    ):
        """A manifest dtype the reader would misdecode is refused when the
        cache opens, naming the array and its dtype."""
        tensor = _fixture_tensor()
        if shape is not None:  # indices of a wider tensor, stored as uint32
            tensor = SparseTensorCOO(tensor.indices, tensor.values, shape)
        path = write_shard_cache_v2(tensor, tmp_path / "c.npz", chunk_nnz=64)
        fields = {} if version is None else {"version": version}
        _rewrite_manifest(
            path,
            arrays={name: {"dtype": dtype} for name, dtype in arrays.items()},
            **fields,
        )
        with pytest.raises(TensorFormatError, match=re.escape(named)):
            load_shard_cache_v2(path)

    def test_chunks_read_only_whatever_the_filter(self, tmp_path):
        """Decoded chunks are shared through the reader's cache, so no
        filter may hand out a writable one."""
        for codec in ("none", "zlib"):
            path = write_shard_cache_v2(
                _fixture_tensor(), tmp_path / f"{codec}.npz", codec=codec,
                chunk_nnz=64,
            )
            with load_shard_cache_v2(path) as reader:
                assert not reader.array("mode0_indices")[0:10].flags.writeable


class TestShardCacheV2IndexWidth:
    """Version-4 caches store indices and keys at ``index_dtype(shape)``."""

    @pytest.mark.parametrize(
        "extent, dtype",
        [(2**16, "<u2"), (2**16 + 1, "<u4"), (2**32, "<u4"), (2**32 + 1, "<i8")],
    )
    @pytest.mark.parametrize("codec", available_codecs())
    def test_coordinates_stored_at_index_dtype(
        self, tmp_path, extent, dtype, codec
    ):
        tensor = _fixture_tensor()
        idx = tensor.indices.copy()
        idx[::7, 1] = extent - 1 - np.arange(idx[::7].shape[0])  # reach the top
        tensor = SparseTensorCOO(idx, tensor.values, (9, extent, 5))
        assert index_dtype(tensor.shape) == np.dtype(dtype)
        path = write_shard_cache_v2(
            tensor, tmp_path / "c.npz", codec=codec, chunk_nnz=64
        )
        with load_shard_cache_v2(path) as reader:
            for m in range(tensor.nmodes):
                s = tensor.sorted_by_mode(m)
                for part in ("indices", "keys"):
                    assert reader.manifest["arrays"][f"mode{m}_{part}"][
                        "dtype"
                    ] == dtype
                got = np.asarray(reader.array(f"mode{m}_indices"))
                keys = np.asarray(reader.array(f"mode{m}_keys"))
                assert got.dtype == keys.dtype == np.dtype(dtype)
                assert np.array_equal(got, s.indices)
                assert np.array_equal(keys, s.indices[:, m])
                assert (
                    np.asarray(reader.array(f"mode{m}_values")).tobytes()
                    == s.values.tobytes()
                )

    @pytest.mark.parametrize("codec", available_codecs())
    def test_builders_byte_identical_at_uint32(self, tmp_path, codec):
        """Both builders narrow to the same width: the external-sort runs
        are spilled as uint32 and the files still match byte for byte."""
        tensor = random_coo((70_000, 40, 30), 600, seed=5)
        mem, ext = _build_both(tensor, tmp_path / "both", codec)
        assert mem == ext
        with load_shard_cache_v2(tmp_path / "both" / "mem.npz") as reader:
            assert reader.manifest["arrays"]["mode0_indices"]["dtype"] == "<u4"

    def test_codec_ratio_prices_8_byte_coordinates(self, tmp_path):
        """``codec_ratio`` times the raw bytes the host timing model prices
        (every coordinate at 8 bytes: indices, values and keys of every
        mode) is exactly the frame bytes the manifest records."""
        tensor = _fixture_tensor()
        path = write_shard_cache_v2(tensor, tmp_path / "c.npz", chunk_nnz=64)
        with load_shard_cache_v2(path) as reader:
            chunks = [
                c
                for meta in reader.manifest["arrays"].values()
                for c in meta["chunks"]
            ]
            ratio = reader.codec_ratio
        nmodes, nnz = tensor.nmodes, tensor.nnz
        priced = nmodes * nnz * (nmodes * 8 + 8 + 8)
        frames = sum(c["nbytes"] for c in chunks)
        assert ratio * priced == pytest.approx(frames, rel=1e-12)
        # the uint16 frames themselves hold fewer raw bytes than are priced
        raw = sum(c["raw_nbytes"] for c in chunks)
        assert raw == nmodes * nnz * (nmodes * 2 + 8 + 2)


class TestShardCacheV2Corruption:
    def test_flipped_byte_caught_by_checksum_names_chunk(
        self, tmp_path, small_tensor
    ):
        """A single flipped payload byte must raise a diagnostic naming the
        array and chunk — never return wrong numbers."""
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "c.npz", codec="zlib", chunk_nnz=64
        )
        _flip_byte(path, _HEADER_BYTES + 5)  # inside the first frame
        with load_shard_cache_v2(path) as reader:
            with pytest.raises(TensorFormatError) as err:
                np.asarray(reader.array("mode0_indices"))
        msg = str(err.value)
        assert "checksum mismatch" in msg
        assert "mode0_indices" in msg and "chunk 0" in msg

    def test_flipped_byte_with_raw_frames_still_caught(
        self, tmp_path, small_tensor
    ):
        """codec='none' has no decompressor to trip — the CRC is the only
        line of defense and must still fire."""
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "raw.npz", codec="none", chunk_nnz=64
        )
        _flip_byte(path, _HEADER_BYTES + 5)
        with load_shard_cache_v2(path) as reader:
            with pytest.raises(TensorFormatError) as err:
                np.asarray(reader.array("mode0_indices"))
        msg = str(err.value)
        assert "checksum mismatch" in msg
        assert "mode0_indices" in msg and "chunk 0" in msg

    def test_truncated_final_chunk_short_read_named(self, tmp_path, small_tensor):
        """A file cut short inside the final frame (past the re-appended
        directory) is caught as a short read, naming the array and chunk."""
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "t.npz", codec="zlib", chunk_nnz=64
        )
        raw = path.read_bytes()
        moff = int.from_bytes(
            raw[len(SHARD_CACHE_V2_MAGIC):_HEADER_BYTES], "little"
        )
        manifest_len = len(raw) - moff
        with load_shard_cache_v2(path) as reader:
            last_name, last_chunk = _last_frame(reader)
            chunk = reader.manifest["arrays"][last_name]["chunks"][last_chunk]
        # cut past the manifest length so the final frame's read hits EOF
        _truncate_frames(path, manifest_len + 32)
        with load_shard_cache_v2(path) as reader:
            with pytest.raises(TensorFormatError) as err:
                # read only the final chunk's rows: the short read is the
                # first (and only) corruption this access can encounter
                reader.array(last_name)[int(chunk["lo"]) : int(chunk["hi"])]
        msg = str(err.value)
        assert "frame truncated" in msg and "cut short" in msg
        assert f"array '{last_name}' chunk {last_chunk}" in msg

    def test_truncated_tail_caught_by_checksum(self, tmp_path, small_tensor):
        """A small cut whose gap is backfilled by the trailing directory
        bytes cannot short-read — the per-chunk CRC is what catches it."""
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "t.npz", codec="zlib", chunk_nnz=64
        )
        with load_shard_cache_v2(path) as reader:
            last_name, last_chunk = _last_frame(reader)
        _truncate_frames(path, 16)
        with load_shard_cache_v2(path) as reader:
            with pytest.raises(TensorFormatError) as err:
                np.asarray(reader.array(last_name))
        msg = str(err.value)
        assert "checksum mismatch" in msg
        assert f"array '{last_name}' chunk {last_chunk}" in msg

    def test_truncated_whole_file_rejected_at_open(self, tmp_path, small_tensor):
        path = write_shard_cache_v2(small_tensor, tmp_path / "t.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # manifest gone entirely
        with pytest.raises(TensorFormatError, match="truncated or corrupt"):
            load_shard_cache_v2(path)

    def test_corrupt_manifest_rejected(self, tmp_path, small_tensor):
        path = write_shard_cache_v2(small_tensor, tmp_path / "m.npz")
        raw = bytearray(path.read_bytes())
        moff = int.from_bytes(
            raw[len(SHARD_CACHE_V2_MAGIC):_HEADER_BYTES], "little"
        )
        raw[moff] = ord("!")  # JSON can no longer parse
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="manifest"):
            load_shard_cache_v2(path)


class TestNoneCacheRegions:
    """A ``codec="none"`` cache holds each array's chunks back to back in
    one 8-byte-aligned region; the reader maps every such array and checks
    a chunk's CRC the first time it serves any of its bytes."""

    def test_regions_contiguous_aligned_and_mapped(
        self, tmp_path, small_tensor
    ):
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "c.npz", codec="none", chunk_nnz=37
        )
        raw = path.read_bytes()
        with load_shard_cache_v2(path) as reader:
            arrays = reader.manifest["arrays"]
            end = _HEADER_BYTES
            for m in range(small_tensor.nmodes):
                for part in ("indices", "values", "keys"):
                    meta = arrays[f"mode{m}_{part}"]
                    row = np.dtype(meta["dtype"]).itemsize * int(
                        np.prod(meta["shape"][1:])
                    )
                    start = -(-end // 8) * 8
                    assert raw[end:start] == b"\0" * (start - end)
                    for c in meta["chunks"]:
                        assert c["offset"] == start + c["lo"] * row
                        assert c["nbytes"] == c["raw_nbytes"]
                        assert c["nbytes"] == (c["hi"] - c["lo"]) * row
                    end = start + meta["shape"][0] * row
            assert arrays["mode0_indices"]["chunks"][0]["offset"] == 16
            assert int.from_bytes(raw[8:16], "little") == end  # manifest
            assert sorted(reader._maps) == sorted(arrays)
            assert reader.cached_nbytes == 0

    def test_each_chunk_checked_once_on_first_touch(
        self, tmp_path, monkeypatch, small_tensor
    ):
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "c.npz", codec="none", chunk_nnz=32
        )
        checked = []
        check = io_v2.ChunkedCacheReader._check_frame

        def traced(self, name, i, frame):
            checked.append((name, i))
            return check(self, name, i, frame)

        monkeypatch.setattr(io_v2.ChunkedCacheReader, "_check_frame", traced)
        want = small_tensor.sorted_by_mode(0).values
        with load_shard_cache_v2(path) as reader:
            arr = reader.array("mode0_values")
            assert np.array_equal(arr[70:90], want[70:90])  # chunk 2
            assert checked == [("mode0_values", 2)]
            assert np.array_equal(arr[60:100], want[60:100])  # chunks 1..3
            assert checked == [("mode0_values", i) for i in (2, 1, 3)]
            arr[0:128]
            arr[0:128]
            assert sorted(checked) == [("mode0_values", i) for i in range(4)]
        reader = load_shard_cache_v2(path)  # a new reader checks again
        reader.array("mode0_values")[70:71]
        reader.close()
        assert checked[-1] == ("mode0_values", 2) and len(checked) == 5


class TestStreamingCacheBuilder:
    @pytest.mark.parametrize("codec", available_codecs())
    def test_coo_input_bit_identical_to_in_memory(
        self, tmp_path, small_tensor, codec
    ):
        want = write_shard_cache_v2(
            small_tensor, tmp_path / "mem.npz", codec=codec, chunk_nnz=64
        )
        res = write_shard_cache_streaming(
            small_tensor,
            tmp_path / "ext.npz",
            memory_budget=100 * (small_tensor.nmodes + 3) * 8,
            codec=codec,
            chunk_nnz=64,
        )
        assert res.n_runs > 1  # the budget genuinely forced external sort
        assert res.path.read_bytes() == want.read_bytes()

    def test_tns_input_streams_without_materializing(
        self, tmp_path, small_tensor
    ):
        """.tns ingest: the cache equals the read-then-write path, under a
        budget far below the tensor's nnz footprint (the acceptance bar)."""
        tns = tmp_path / "t.tns"
        write_tns(tns, small_tensor)
        budget_elems = 64
        budget = budget_elems * (small_tensor.nmodes + 3) * 8
        assert budget < small_tensor.nbytes  # budget < nnz footprint
        res = write_shard_cache_streaming(
            tns, tmp_path / "ext.npz", memory_budget=budget, chunk_nnz=32
        )
        want = write_shard_cache_v2(
            read_tns(tns), tmp_path / "mem.npz", chunk_nnz=32
        )
        assert res.path.read_bytes() == want.read_bytes()
        assert res.run_nnz == budget_elems
        assert res.peak_run_nnz <= 2 * max(res.run_nnz, res.n_runs)
        assert res.peak_run_nnz < small_tensor.nnz

    def test_explicit_shape_and_range_check(self, tmp_path, small_tensor):
        res = write_shard_cache_streaming(
            small_tensor, tmp_path / "s.npz", memory_budget=1 << 20
        )
        assert res.shape == small_tensor.shape  # COO shape preserved
        tns = tmp_path / "t.tns"
        write_tns(tns, small_tensor)
        with pytest.raises(TensorFormatError, match="out of range"):
            write_shard_cache_streaming(
                tns, tmp_path / "bad.npz", memory_budget=1 << 20, shape=(2, 2, 2)
            )

    def test_max_nnz_guard(self, tmp_path, small_tensor):
        tns = tmp_path / "t.tns"
        write_tns(tns, small_tensor)
        with pytest.raises(TensorFormatError, match="max_nnz"):
            write_shard_cache_streaming(
                tns, tmp_path / "g.npz", memory_budget=1 << 20, max_nnz=10
            )
        # the guard applies to in-memory COO input too, not just .tns
        with pytest.raises(TensorFormatError, match="max_nnz"):
            write_shard_cache_streaming(
                small_tensor, tmp_path / "g2.npz",
                memory_budget=1 << 20, max_nnz=small_tensor.nnz - 1,
            )

    def test_bad_budget_rejected(self, tmp_path, small_tensor):
        with pytest.raises(TensorFormatError, match="memory_budget"):
            write_shard_cache_streaming(
                small_tensor, tmp_path / "b.npz", memory_budget=0
            )

    def test_empty_tns_needs_shape(self, tmp_path):
        tns = tmp_path / "e.tns"
        tns.write_text("# nothing\n")
        with pytest.raises(TensorFormatError, match="shape"):
            write_shard_cache_streaming(
                tns, tmp_path / "e.npz", memory_budget=1 << 20
            )
        res = write_shard_cache_streaming(
            tns, tmp_path / "e2.npz", memory_budget=1 << 20, shape=(3, 3)
        )
        assert res.nnz == 0 and res.shape == (3, 3)


def _build_both(tensor, out_dir, codec):
    """Build one cache with each writer; returns their bytes."""
    out_dir.mkdir()
    mem = write_shard_cache_v2(
        tensor, out_dir / "mem.npz", codec=codec, chunk_nnz=16
    )
    ext = write_shard_cache_streaming(
        tensor,
        out_dir / "ext.npz",
        memory_budget=100 * (tensor.nmodes + 3) * 8,
        codec=codec,
        chunk_nnz=16,
    )
    assert ext.n_runs > 1
    return mem.read_bytes(), ext.path.read_bytes()


class TestPooledFrameCompression:
    """Frames compress on a thread pool, written in submission order: the
    file must not depend on the pool size."""

    @pytest.mark.parametrize("codec", available_codecs())
    def test_bytes_independent_of_pool_size(
        self, tmp_path, monkeypatch, small_tensor, codec
    ):
        default = _build_both(small_tensor, tmp_path / "default", codec)

        workers = []
        compress = io_v2._compress_frame

        def traced(*args):
            workers.append(threading.current_thread() is threading.main_thread())
            return compress(*args)

        monkeypatch.setattr(io_v2, "_compress_frame", traced)
        force_cpus(monkeypatch, 8)
        pooled = _build_both(small_tensor, tmp_path / "pooled", codec)
        frames = -(-small_tensor.nnz // 16) * 3 * small_tensor.nmodes
        assert frames > 200  # dozens of frames per array
        assert len(workers) == 2 * frames
        assert all(workers) == (codec == "none")

        monkeypatch.setattr(io_v2, "_MAX_COMPRESS_WORKERS", 1)
        serial = _build_both(small_tensor, tmp_path / "serial", codec)
        assert default == pooled == serial
        assert default[0] == default[1]

    @pytest.mark.parametrize("fail_at", [0, 37, 200])
    @pytest.mark.parametrize("streaming", [False, True])
    def test_codec_failure_aborts_cleanly(
        self, tmp_path, monkeypatch, small_tensor, fail_at, streaming
    ):
        class FrameError(RuntimeError):
            pass

        make_codecs = io_v2._make_codecs

        def failing_codecs():
            codecs = make_codecs()
            real = codecs["zlib"].compress
            calls = itertools.count()

            def compress(data, level):
                if next(calls) == fail_at:
                    raise FrameError(f"frame {fail_at}")
                return real(data, level)

            codecs["zlib"] = dataclasses.replace(codecs["zlib"], compress=compress)
            return codecs

        monkeypatch.setattr(io_v2, "_make_codecs", failing_codecs)
        force_cpus(monkeypatch, 8)
        baseline = threading.active_count()
        out = tmp_path / "partial.npz"
        sort_dir = tmp_path / "sort"
        sort_dir.mkdir()
        with pytest.raises(FrameError, match=f"frame {fail_at}"):
            if streaming:
                write_shard_cache_streaming(
                    small_tensor, out, memory_budget=100 * 6 * 8,
                    chunk_nnz=16, tmp_dir=sort_dir,
                )
            else:
                write_shard_cache_v2(small_tensor, out, chunk_nnz=16)
        assert not out.exists()
        assert not any(sort_dir.iterdir())
        assert threading.active_count() == baseline

    def test_heap_trim_is_safe_to_call(self):
        io_v2._trim_heap()


def _frame_offset(reader, name, i):
    return reader.manifest["arrays"][name]["chunks"][i]["offset"]


def _chunk_rows(reader, name, i):
    chunk = reader.manifest["arrays"][name]["chunks"][i]
    return chunk["lo"], chunk["hi"]


def _settle(reader, name, i):
    """Wait for the read-ahead decode of chunk ``i`` to finish."""
    entry = reader._cache[(name, i)]
    entry.exception(timeout=10)
    return entry


class TestChunkReadAhead:
    """A read-ahead view decodes the next chunks of its array on the
    reader's decode pool: same bytes, errors raised where the consumer
    reaches them, the pool joined by close(), and residency capped
    reader-wide."""

    @pytest.mark.parametrize("codec", available_codecs())
    @pytest.mark.parametrize("cache_chunks", [1, 2])
    def test_sequential_batches_same_bytes_each_chunk_decoded_once(
        self, tmp_path, monkeypatch, small_tensor, codec, cache_chunks
    ):
        force_cpus(monkeypatch, 4)
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "c.npz", codec=codec, chunk_nnz=32
        )
        loads = []
        load = io_v2.ChunkedCacheReader._load

        def traced(self, name, i):
            loads.append((name, i, threading.current_thread().name))
            return load(self, name, i)

        monkeypatch.setattr(io_v2.ChunkedCacheReader, "_load", traced)
        with load_shard_cache_v2(path, cache_chunks=cache_chunks) as reader:
            for m in range(small_tensor.nmodes):
                want = small_tensor.sorted_by_mode(m)
                idx = reader.array(f"mode{m}_indices", read_ahead=2)
                val = reader.array(f"mode{m}_values", read_ahead=2)
                for lo in range(0, small_tensor.nnz, 20):  # spans chunks
                    hi = lo + 20
                    assert np.array_equal(idx[lo:hi], want.indices[lo:hi])
                    assert np.array_equal(val[lo:hi], want.values[lo:hi])
        decoded = [(name, i) for name, i, _ in loads]
        if cache_chunks == 2:
            assert len(decoded) == len(set(decoded))
        pooled = {t for _, _, t in loads if t.startswith("repro-v2-decode")}
        assert bool(pooled) == (codec != "none")

    @pytest.mark.parametrize("codec", [c for c in available_codecs() if c != "none"])
    @pytest.mark.parametrize("read_ahead", [0, 2])
    def test_decoded_bytes_capped_reader_wide(
        self, tmp_path, monkeypatch, small_tensor, codec, read_ahead
    ):
        force_cpus(monkeypatch, 4)
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "c.npz", codec=codec, chunk_nnz=32
        )
        pair = 32 * (small_tensor.nmodes + 1) * 8
        with load_shard_cache_v2(path) as reader:
            for m in range(small_tensor.nmodes):
                for part in ("indices", "values"):
                    arr = reader.array(f"mode{m}_{part}", read_ahead=read_ahead)
                    for lo in range(0, small_tensor.nnz, 20):
                        arr[lo : lo + 20]
                        assert reader.cached_nbytes <= (2 + read_ahead) * pair

    def test_corrupt_read_ahead_chunk_raises_when_reached(
        self, tmp_path, monkeypatch, small_tensor
    ):
        force_cpus(monkeypatch, 4)
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "c.npz", codec="zlib", chunk_nnz=32
        )
        name = "mode0_indices"
        with load_shard_cache_v2(path) as reader:
            offset = _frame_offset(reader, name, 3)
            lo, hi = _chunk_rows(reader, name, 3)
        _flip_byte(path, offset + 3)
        want = small_tensor.sorted_by_mode(0).indices
        with load_shard_cache_v2(path) as reader:
            arr = reader.array(name, read_ahead=2)
            assert np.array_equal(arr[32:64], want[32:64])  # queues 2 and 3
            assert _settle(reader, name, 3).exception() is not None
            assert np.array_equal(arr[64:96], want[64:96])
            with pytest.raises(TensorFormatError) as err:
                arr[lo:hi]
        msg = str(err.value)
        assert f"array {name!r} chunk 3 (rows {lo}..{hi})" in msg
        assert "checksum mismatch" in msg

    def test_unconsumed_corrupt_chunk_raises_nothing(
        self, tmp_path, monkeypatch, small_tensor
    ):
        force_cpus(monkeypatch, 4)
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "c.npz", codec="zlib", chunk_nnz=32
        )
        name = "mode0_values"
        with load_shard_cache_v2(path) as reader:
            last = len(reader.manifest["arrays"][name]["chunks"]) - 1
            offset = _frame_offset(reader, name, last)
            stop, _ = _chunk_rows(reader, name, last)
        _flip_byte(path, offset + 3)
        want = small_tensor.sorted_by_mode(0).values
        reader = load_shard_cache_v2(path)
        arr = reader.array(name, read_ahead=2)
        start = stop - 64  # chunk last-2: queues last-1 and last
        assert np.array_equal(arr[start:stop], want[start:stop])
        assert _settle(reader, name, last).exception() is not None
        reader.close()

    def test_close_mid_stream_joins_the_decode_pool(
        self, tmp_path, monkeypatch, small_tensor
    ):
        force_cpus(monkeypatch, 4)
        path = write_shard_cache_v2(
            small_tensor, tmp_path / "c.npz", codec="zlib", chunk_nnz=32
        )
        baseline = threading.active_count()
        reader = load_shard_cache_v2(path)
        arr = reader.array("mode1_indices", read_ahead=2)
        arr[0:40]
        assert threading.active_count() > baseline
        reader.close()
        assert threading.active_count() == baseline
        assert reader.cached_nbytes == 0
        with pytest.raises(TensorFormatError, match="closed"):
            arr[40:80]
        reader.close()  # idempotent
