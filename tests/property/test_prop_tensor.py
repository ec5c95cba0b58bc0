"""Property-based tests (hypothesis) for the tensor substrate."""

import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.tensor import io_v2
from repro.tensor.coo import INDEX_DTYPES, SparseTensorCOO, stable_key_order
from repro.tensor.formats.blco import BLCOTensor
from repro.tensor.formats.csf import CSFTensor
from repro.tensor.formats.hicoo import HiCOOTensor
from repro.tensor.formats.linearize import LinearIndexCodec


@st.composite
def coo_tensors(draw, max_modes=4, max_extent=12, max_nnz=60):
    """Random small COO tensors (possibly with duplicate coordinates)."""
    nmodes = draw(st.integers(2, max_modes))
    shape = tuple(draw(st.integers(1, max_extent)) for _ in range(nmodes))
    nnz = draw(st.integers(0, max_nnz))
    idx_cols = [
        draw(
            arrays(np.int64, (nnz,), elements=st.integers(0, s - 1))
        )
        for s in shape
    ]
    indices = (
        np.column_stack(idx_cols) if nnz else np.empty((0, nmodes), dtype=np.int64)
    )
    values = draw(
        arrays(
            np.float64,
            (nnz,),
            elements=st.floats(-10, 10, allow_nan=False, width=64).filter(
                lambda x: abs(x) > 1e-6
            ),
        )
    )
    return SparseTensorCOO(indices, values, shape)


class TestCooProperties:
    @given(coo_tensors())
    @settings(max_examples=60, deadline=None)
    def test_dedup_preserves_dense_sum(self, t):
        """Deduplication is a pure regrouping: the dense tensor is unchanged."""
        assert np.allclose(t.deduplicated().to_dense(), t.to_dense())

    @given(coo_tensors(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_sort_by_mode_is_permutation(self, t, mode_raw):
        mode = mode_raw % t.nmodes
        s = t.sorted_by_mode(mode)
        assert s.allclose(t)
        keys = s.indices[:, mode]
        assert (np.diff(keys) >= 0).all()

    @given(coo_tensors())
    @settings(max_examples=40, deadline=None)
    def test_norm_matches_dense_after_canonicalization(self, t):
        """norm() is the Frobenius norm of the canonical (deduplicated) form."""
        canonical = t.deduplicated()
        assert np.isclose(
            canonical.norm(), np.linalg.norm(canonical.to_dense().ravel())
        )


#: mode extents around the radix digit boundaries (one 16-bit pass up to
#: 2**16, then one pass more per started 16 bits)
RADIX_EXTENTS = (1, 2, 255, 2**16, 2**16 + 1, 2**20, 2**33)


@st.composite
def bounded_keys(draw, extent):
    """Keys in ``[0, extent)``: free draws, or a few values heavily repeated."""
    nnz = draw(st.integers(0, 300))
    if draw(st.booleans()):
        return draw(arrays(np.int64, (nnz,), elements=st.integers(0, extent - 1)))
    pool = draw(
        arrays(np.int64, (draw(st.integers(1, 4)),),
               elements=st.integers(0, extent - 1))
    )
    picks = draw(
        arrays(np.int64, (nnz,), elements=st.integers(0, pool.shape[0] - 1))
    )
    return pool[picks]


@st.composite
def wide_coo_tensors(draw):
    """COO tensors whose mode extents straddle the radix digit boundaries."""
    shape = tuple(draw(st.sampled_from(RADIX_EXTENTS)) for _ in range(3))
    cols = [draw(bounded_keys(s)) for s in shape]
    nnz = min(c.shape[0] for c in cols)
    indices = np.column_stack([c[:nnz] for c in cols]).reshape(nnz, 3)
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    values = np.arange(nnz, dtype=dtype)
    return SparseTensorCOO(indices, values, shape)


class TestStableKeyOrder:
    """The radix sort behind ``sorted_by_mode`` is the stable argsort."""

    @given(st.sampled_from(RADIX_EXTENTS).flatmap(
        lambda e: st.tuples(st.just(e), bounded_keys(e))
    ))
    @settings(max_examples=150, deadline=None)
    def test_equals_stable_argsort(self, case):
        extent, keys = case
        want = np.argsort(keys, kind="stable")
        got = stable_key_order(keys, extent)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("extent", RADIX_EXTENTS)
    @pytest.mark.parametrize("nnz", [0, 1])
    def test_tiny_inputs(self, extent, nnz):
        keys = np.full(nnz, extent - 1, dtype=np.int64)
        got = stable_key_order(keys, extent)
        assert got.dtype == np.argsort(keys).dtype
        assert np.array_equal(got, np.arange(nnz))

    @pytest.mark.parametrize("extent", RADIX_EXTENTS)
    def test_strided_column_with_duplicates(self, extent):
        rng = np.random.default_rng(extent % 1000)
        pool = rng.integers(0, extent, 5)
        indices = np.column_stack(
            [pool[rng.integers(0, 5, 2000)], rng.integers(0, extent, 2000)]
        )
        for col in (indices[:, 0], indices[:, 1]):
            assert np.array_equal(
                stable_key_order(col, extent), np.argsort(col, kind="stable")
            )

    @given(wide_coo_tensors(), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_sorted_by_mode_equals_validated_construction(self, t, mode):
        order = np.argsort(t.indices[:, mode], kind="stable")
        want = SparseTensorCOO(t.indices[order], t.values[order], t.shape)
        got = t.sorted_by_mode(mode)
        assert got.shape == want.shape
        for name in ("indices", "values"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)


class TestFormatRoundTrips:
    @given(coo_tensors())
    @settings(max_examples=40, deadline=None)
    def test_csf_roundtrip(self, t):
        assert CSFTensor.from_coo(t).to_coo().allclose(t)

    @given(coo_tensors(), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_hicoo_roundtrip(self, t, block_bits):
        assert HiCOOTensor.from_coo(t, block_bits=block_bits).to_coo().allclose(t)

    @given(coo_tensors(), st.integers(4, 63))
    @settings(max_examples=40, deadline=None)
    def test_blco_roundtrip(self, t, word_bits):
        b = BLCOTensor.from_coo(t, word_bits=word_bits)
        assert b.to_coo().allclose(t)
        assert b.nnz == t.nnz


class TestLinearizeProperties:
    @given(
        st.lists(st.integers(1, 2**20), min_size=1, max_size=5),
        st.integers(0, 200),
        st.integers(1, 63),
        st.integers(0, 2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_encode_decode_identity(self, shape, nnz, word_bits, seed):
        shape = tuple(shape)
        rng = np.random.default_rng(seed)
        idx = (
            np.column_stack([rng.integers(0, s, nnz) for s in shape]).astype(np.int64)
            if nnz
            else np.empty((0, len(shape)), dtype=np.int64)
        )
        codec = LinearIndexCodec(shape)
        block, offset, obits = codec.encode_blocked(idx, word_bits=word_bits)
        assert np.array_equal(codec.decode_blocked(block, offset, obits), idx)
        # offsets must fit in the declared bit budget
        if nnz:
            assert offset.max(initial=0) < (1 << obits)


#: dtypes of itemsize 1, 4 and 8 (the cache writes only 8-byte items today)
FRAME_DTYPES = (np.uint8, np.int32, np.float32, np.int64, np.float64)


@st.composite
def frame_arrays(draw):
    """1-D or 2-D arrays of 0, 1 or more rows, sometimes a strided column
    view like the writer's key frames."""
    dtype = np.dtype(draw(st.sampled_from(FRAME_DTYPES)))
    rows = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 40)))
    width = draw(st.sampled_from([None, 1, 3]))
    shape = (rows,) if width is None else (rows, width)
    raw = draw(arrays(np.uint8, (int(np.prod(shape)) * dtype.itemsize,)))
    arr = raw.view(dtype).reshape(shape)
    if width == 3 and draw(st.booleans()):
        arr = arr[:, 1]
    return arr


@st.composite
def index_frames(draw):
    """``(rows, columns)`` index frames of every coordinate dtype, with 1-6
    columns and 0, 1 or an odd number of rows."""
    dtype = draw(st.sampled_from(INDEX_DTYPES))
    odd = st.integers(1, 20).map(lambda h: 2 * h + 1)
    rows = draw(st.one_of(st.sampled_from([0, 1]), odd))
    cols = draw(st.integers(1, 6))
    top = {2: 2**16 - 1, 4: 2**32 - 1, 8: 2**40}[dtype.itemsize]
    return draw(arrays(dtype, (rows, cols), elements=st.integers(0, top)))


class TestFrameFilterProperties:
    @given(
        frame_arrays(),
        st.sampled_from(io_v2.available_codecs()),
        st.sampled_from(io_v2.FRAME_FILTERS),
    )
    @settings(max_examples=150, deadline=None)
    def test_frame_round_trip(self, arr, codec_name, filter_name):
        """Encode then decode gives the same bytes, shape and dtype, for
        every codec (``none`` included) and filter."""
        codec = io_v2._resolve_codec(codec_name)
        frame, crc = io_v2._compress_frame(codec, filter_name, arr)
        assert crc == zlib.crc32(frame)
        out = io_v2._decode_frame(
            codec, filter_name, frame, arr.nbytes, arr.dtype, arr.shape
        )
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert out.tobytes() == arr.tobytes()
        assert not out.flags.writeable

    @given(frame_arrays())
    @settings(max_examples=100, deadline=None)
    def test_shuffle_groups_byte_k_of_every_item(self, arr):
        size = arr.dtype.itemsize
        items = np.frombuffer(arr.tobytes(), dtype=np.uint8).reshape(-1, size)
        shuffled = io_v2._shuffle(arr, "shuffle")
        planes = np.frombuffer(shuffled, dtype=np.uint8).reshape(size, -1)
        for k in range(size):
            assert planes[k].tobytes() == items[:, k].tobytes()
        restored = io_v2._unshuffle(shuffled, arr.dtype, arr.shape, "shuffle")
        assert restored.tobytes() == arr.tobytes()

    @given(index_frames())
    @settings(max_examples=150, deadline=None)
    def test_column_shuffle_groups_byte_k_of_each_column(self, arr):
        """``colshuffle`` of an index frame is byte k of column 0's items,
        then of column 1's, ..., for k = 0, 1, ...; it round-trips bit for
        bit at the frame's shape and dtype."""
        rows, cols = arr.shape
        size = arr.dtype.itemsize
        shuffled = io_v2._shuffle(arr, "colshuffle")
        assert len(shuffled) == arr.nbytes
        planes = np.frombuffer(shuffled, dtype=np.uint8)
        planes = planes.reshape(size, cols, rows)
        items = arr.view(np.uint8).reshape(rows, cols, size)
        for k in range(size):
            for c in range(cols):
                assert planes[k, c].tobytes() == items[:, c, k].tobytes()
        restored = io_v2._unshuffle(shuffled, arr.dtype, arr.shape, "colshuffle")
        assert restored.dtype == arr.dtype and restored.shape == arr.shape
        assert restored.tobytes() == arr.tobytes()

    @given(index_frames(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_column_shuffle_of_1d_frame_is_the_v4_shuffle(self, arr, key):
        """On a 1-D frame (a value frame, or a key column like the writer's
        strided ``indices[:, m]`` view) ``colshuffle`` writes exactly the
        bytes version 4's ``shuffle`` wrote."""
        flat = arr[:, 0] if key else arr.reshape(-1)
        items = np.ascontiguousarray(flat)
        v4 = items.view(np.uint8).reshape(items.size, items.itemsize).T
        assert io_v2._shuffle(flat, "colshuffle") == v4.tobytes()
        assert io_v2._shuffle(flat, "shuffle") == v4.tobytes()
        restored = io_v2._unshuffle(
            v4.tobytes(), flat.dtype, flat.shape, "colshuffle"
        )
        assert restored.tobytes() == items.tobytes()

    @given(
        index_frames(),
        st.sampled_from(io_v2.available_codecs()),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_builders_write_identical_version_5_files(
        self, idx, codec, chunk_nnz
    ):
        """Over every coordinate width and 1-6 modes, the in-memory and the
        external-sort builders write the same version-5 bytes, which read
        back the tensor's sorted copies."""
        rows, nmodes = idx.shape
        # the first extent makes index_dtype(shape) the frame's dtype
        floor = {2: 2**16, 4: 2**32, 8: 2**32 + 1}[idx.dtype.itemsize]
        shape = tuple(
            max(floor if m == 0 else 1, int(idx[:, m].max(initial=0)) + 1)
            for m in range(nmodes)
        )
        t = SparseTensorCOO(
            idx.astype(np.int64), np.arange(rows, dtype=np.float64) - 2.5, shape
        )
        with tempfile.TemporaryDirectory() as tmp:
            mem = io_v2.write_shard_cache_v2(
                t, Path(tmp) / "mem.npz", codec=codec, chunk_nnz=chunk_nnz
            )
            ext = io_v2.write_shard_cache_streaming(
                t, Path(tmp) / "ext.npz", codec=codec, chunk_nnz=chunk_nnz,
                memory_budget=2 * (nmodes + 3) * 8,
            )
            assert ext.path.read_bytes() == mem.read_bytes()
            with io_v2.load_shard_cache_v2(mem) as reader:
                assert reader.manifest["version"] == 5
                assert reader.filter == (
                    "none" if codec == "none" else "colshuffle"
                )
                for m in range(nmodes):
                    s = t.sorted_by_mode(m)
                    got = np.asarray(reader.array(f"mode{m}_indices"))
                    assert got.dtype == idx.dtype
                    assert np.array_equal(got, s.indices)
                    assert np.array_equal(
                        np.asarray(reader.array(f"mode{m}_values")), s.values
                    )

    @given(
        coo_tensors(max_nnz=30),
        st.integers(1, 4),
        st.sampled_from(io_v2.available_codecs()),
    )
    @settings(max_examples=40, deadline=None)
    def test_cache_round_trip_small_chunks(self, t, chunk_nnz, codec):
        """Whole caches of 1- to 4-row chunks read back every array."""
        with tempfile.TemporaryDirectory() as tmp:
            path = io_v2.write_shard_cache_v2(
                t, Path(tmp) / "c.npz", codec=codec, chunk_nnz=chunk_nnz
            )
            with io_v2.load_shard_cache_v2(path) as reader:
                for m in range(t.nmodes):
                    s = t.sorted_by_mode(m)
                    got = reader.array(f"mode{m}_indices")
                    assert np.array_equal(np.asarray(got), s.indices)
                    assert np.array_equal(
                        np.asarray(reader.array(f"mode{m}_values")), s.values
                    )
                    assert np.array_equal(got[:, m], s.indices[:, m])
