"""Shard cache v2: the on-disk format out-of-core tensors stream from.

Every mode-sorted array of a tensor is cut into **fixed-``chunk_nnz`` row
chunks**, each stored as one frame with its **CRC-32** in a **JSON
manifest** (written after the frames, located by a fixed header pointer),
so corruption is caught and named before wrong numbers can propagate. The
codec picks how frames hold their rows:

* ``codec="none"`` (``repro cache``'s default) stores raw C-order bytes,
  and the writer lays each array's chunks out back to back in one
  8-byte-aligned region. A reader maps such an array once, read-only, and
  hands out slices of the map: no read, copy or cache per batch, and
  the OS page cache does the staging. Each chunk's CRC is checked the
  first time the reader serves any of its bytes.
* ``zstd``/``zlib``/``lzma`` compress each frame independently, for cold
  storage (object stores, network filesystems, spinning disks) where bytes
  moved dominate: a streamed batch decompresses only the chunks it
  overlaps, through a small reader-wide LRU (double buffer by default),
  and a read-ahead view also decodes the next chunks on a small thread
  pool while the consumer works on the current one. Each load checks its
  frame's CRC.

Construction never needs the tensor resident:
:func:`write_shard_cache_streaming` is an **external-sort builder** — it
ingests ``.tns`` text or a COO tensor in bounded-memory runs, stable-sorts
each run, spills it to disk, and k-way-merges the runs straight into the
chunk frames. Peak resident element count is O(memory budget), never
O(nnz), and the produced file is **byte-identical** to the in-memory
:func:`write_shard_cache_v2` (stable run sort + stable merge == the global
stable sort ``SparseTensorCOO.sorted_by_mode`` performs), which the
property suite pins.

On-disk layout::

    bytes 0..8    magic  b"REPROSC2"
    bytes 8..16   little-endian uint64: manifest byte offset
    bytes 16..M   chunk frames: compressed frames back to back, or for
                  codec "none" one region per array (mode 0's indices,
                  values, keys, then mode 1's, ...), each starting on an
                  8-byte boundary and holding its chunks in row order
    bytes M..EOF  canonical JSON manifest (utf-8)

Manifest schema (canonical ``json.dumps(..., sort_keys=True)``)::

    {
      "format": "repro-shard-cache-v2",
      "version": 5,                   # 2 (no "filter" key, raw frames),
                                      # 3 and 4 ("shuffle") are still
                                      # read; 2 and 3 hold "<i8"
                                      # coordinates
      "codec": "zstd" | "zlib" | "lzma" | "none",
      "filter": "colshuffle" | "shuffle" | "none",
                                      # "colshuffle" for every real codec
      "level": <int>,                 # the codec's level
      "chunk_nnz": <int>,             # target rows per chunk
      "shape": [I_0, ...],
      "nnz": <int>,
      "arrays": {
        "mode{d}_indices" | "mode{d}_values" | "mode{d}_keys": {
          "dtype": "<u2" | "<u4" | "<i8"  # indices and keys
                 | "<f8",                 # values
          "shape": [...],
          "chunks": [
            {"lo": r0, "hi": r1,      # row range of the chunk
             "offset": o,             # absolute frame offset in the file
             "nbytes": n,             # compressed frame length
             "raw_nbytes": r,         # decompressed length (C-order bytes)
             "crc32": c},             # CRC-32 of the compressed frame
            ...
          ]
        }
      }
    }

**Coordinate width.** A mode's ``indices`` and ``keys`` share one
little-endian dtype: :func:`repro.tensor.coo.index_dtype` of ``shape``
(uint16 when no extent passes 2**16, uint32 up to 2**32, int64 beyond),
the width resident mode copies use. The reader accepts any dtype of
:data:`repro.tensor.coo.INDEX_DTYPES` at least that wide, and refuses
anything else by array name before a frame is decoded.

**Frame filter.** A frame's raw bytes are byte-shuffled before
compression. With ``"filter": "shuffle"`` (versions 3 and 4; Blosc's
lossless filter) byte *k* of every ``dtype``-sized item comes first for
*k* = 0, then *k* = 1, and so on. ``"colshuffle"`` (version 5) shuffles a
2-D ``mode{d}_indices`` frame column by column: byte *k* of column 0's
items, then byte *k* of column 1's, and so on, so the sorted key column's
runs are not interleaved with the unsorted columns; on a 1-D frame
(values, keys) it emits exactly the ``shuffle`` bytes. Index bytes are
mostly high-order zeros, so the shuffled stream holds long zero runs.
Version-5 zlib frames are deflated with the ``Z_RLE`` strategy (run
matches only), which the standard ``zlib.decompress`` inflates and which
writes the same frame at every level. Against version 4 (``shuffle``,
``zlib.compress`` at level 1) on the amazon generator's 65,536-row
frames, index and value frames compress in about a third of the CPU, at
ratios 0.485 → 0.273 and 0.859 → 0.848 (``docs/out_of_core.md``).
The reader undoes the filter after the CRC (which covers the compressed
frame), decompression and ``raw_nbytes`` checks. No delta step is taken:
only the key column is sorted, and deltas of the other index columns
sign-extend to 0xFF bytes that compress worse than the shuffle alone.

**Mapped arrays.** A reader maps an array when its manifest says its
frames are raw (codec and filter ``none``), its chunks cover its rows in
order at ``offset = region + lo * row bytes`` with the region aligned to
the dtype and inside the file. Anything else, such as a ``none`` cache
written before regions existed (its frames are interleaved), is served by
chunk loads as compressed caches are. The choice follows from the offsets
alone, so the schema and version did not change.
"""

from __future__ import annotations

import ctypes
import json
import os
import threading
import zlib
from bisect import bisect_right
from collections import OrderedDict, deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.errors import TensorFormatError
from repro.tensor.coo import (
    INDEX_DTYPES,
    SparseTensorCOO,
    index_dtype,
    stable_key_order,
)

__all__ = [
    "SHARD_CACHE_V2_VERSION",
    "SHARD_CACHE_V2_MAGIC",
    "FRAME_FILTERS",
    "DEFAULT_CHUNK_NNZ",
    "DEFAULT_CHUNK_CACHE",
    "READ_AHEAD_CHUNKS",
    "CODEC_NAMES",
    "available_codecs",
    "codec_available",
    "shard_cache_path",
    "write_shard_cache_v2",
    "write_shard_cache_streaming",
    "load_shard_cache_v2",
    "ChunkedCacheReader",
    "ChunkedArray",
    "StreamingBuildResult",
]

#: manifest version the writer emits (3 added the frame ``filter``, 4 the
#: narrow coordinate dtypes, 5 the ``colshuffle`` filter and ``Z_RLE`` zlib
#: frames); the container (magic, header, frames, manifest) is still the
#: v2 one
SHARD_CACHE_V2_VERSION = 5
SHARD_CACHE_V2_MAGIC = b"REPROSC2"

#: manifest versions the reader accepts (2: no ``filter`` key, raw frames;
#: 2 and 3: int64 coordinates)
_READABLE_VERSIONS = (2, 3, 4, 5)

#: frame filters a manifest may name: ``none`` stores a frame's raw
#: C-order bytes, ``shuffle`` their byte shuffle and ``colshuffle`` their
#: byte shuffle column by column (see the module docstring)
FRAME_FILTERS = ("none", "shuffle", "colshuffle")

#: manifest pointer is a fixed-width field right after the magic
_HEADER_BYTES = len(SHARD_CACHE_V2_MAGIC) + 8

#: byte boundary every ``codec="none"`` array region starts on (the header
#: is a multiple of it, so the first region starts right after it)
_REGION_ALIGN = 8

#: default rows per compressed chunk — a few batches' worth at the
#: cache-model auto batch size, so one staged batch touches 1-2 frames
DEFAULT_CHUNK_NNZ = 65536

#: decoded chunks kept per element array (2 == classic double buffering:
#: the chunk being reduced plus the one the next batch is pulling in); the
#: reader-wide cap is this many chunks of a mode's indices *and* values
DEFAULT_CHUNK_CACHE = 2

#: chunks a read-ahead view decodes ahead of its consumer, counted inside
#: the reader-wide cap (2 + 2 chunk pairs is what ``host_memory_plan``
#: prices for the serial lane plus the prefetch lane)
READ_AHEAD_CHUNKS = 2

#: upper bound on frame-compression threads per writer (zlib, lzma and
#: zstd release the GIL, so frames compress in parallel; more threads than
#: this buy little at the default chunk size and cost resident frames)
_MAX_COMPRESS_WORKERS = 4

#: upper bound on read-ahead decode threads per reader (the consumer runs
#: one MTTKRP at a time, so two decoders keep READ_AHEAD_CHUNKS in flight)
_MAX_DECODE_WORKERS = 2


# ----------------------------------------------------------------------
# Codec registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Codec:
    name: str
    #: level every frame is compressed at (the manifest records it)
    level: int
    compress: Callable[[bytes, int], bytes]
    decompress: Callable[[bytes], bytes]


def _zstd_module():
    try:
        import zstandard
    except ImportError:
        return None
    return zstandard


def _deflate_rle(data: bytes, level: int) -> bytes:
    """A standard zlib stream of ``data`` deflated with ``Z_RLE``: matches
    are runs only, so every level in 1..9 gives the same bytes."""
    deflate = zlib.compressobj(
        level, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_RLE
    )
    return deflate.compress(data) + deflate.flush()


def _make_codecs() -> dict[str, _Codec]:
    import lzma

    codecs = {
        "none": _Codec("none", 0, lambda data, level: data, lambda data: data),
        "zlib": _Codec(
            "zlib",
            1,
            _deflate_rle,
            zlib.decompress,
        ),
        "lzma": _Codec(
            "lzma",
            1,
            lambda data, level: lzma.compress(data, preset=level),
            lzma.decompress,
        ),
    }
    zstd = _zstd_module()
    if zstd is not None:
        codecs["zstd"] = _Codec(
            "zstd",
            3,
            lambda data, level: zstd.ZstdCompressor(level=level).compress(data),
            lambda data: zstd.ZstdDecompressor().decompress(data),
        )
    return codecs


#: every codec name the format knows (zstd needs the optional ``zstandard``
#: package at runtime; :func:`available_codecs` reports what this host has)
CODEC_NAMES = ("none", "zlib", "lzma", "zstd")


def available_codecs() -> tuple[str, ...]:
    """Codec names usable on this host, in registry order."""
    built = _make_codecs()
    return tuple(name for name in CODEC_NAMES if name in built)


def codec_available(name: str) -> bool:
    return name in available_codecs()


def _resolve_codec(name, origin: str = "codec") -> _Codec:
    if not isinstance(name, str) or name not in CODEC_NAMES:
        raise TensorFormatError(
            f"{origin} must be one of {list(CODEC_NAMES)}, got {name!r}"
        )
    built = _make_codecs()
    if name not in built:
        raise TensorFormatError(
            f"{origin} {name!r} is not available on this host (the optional "
            f"'zstandard' package is not installed); available codecs: "
            f"{list(built)}"
        )
    return built[name]


def shard_cache_path(path) -> Path:
    """A cache path as the writers write it: ``.npz`` appended to a path
    without that suffix. Every consumer (readers, the CLI, the plan layer)
    resolves user-supplied paths through this so writer and readers
    agree."""
    path = Path(path)
    if path.suffix == ".npz":
        return path
    return path.with_name(path.name + ".npz")


def _check_magic(path: Path) -> None:
    """Refuse, by name, a path that is not a v2 cache: a missing file, a
    version-1 ``.npz`` archive (zip magic), or anything else."""
    if not path.is_file():
        raise TensorFormatError(
            f"shard cache {path} does not exist; build it with "
            f"write_shard_cache_v2() (CLI: `repro cache`)"
        )
    with open(path, "rb") as f:
        head = f.read(len(SHARD_CACHE_V2_MAGIC))
    if head == SHARD_CACHE_V2_MAGIC:
        return
    if head[:4] == b"PK\x03\x04":
        raise TensorFormatError(
            f"{path}: shard cache version 1 (an .npz archive) is no longer "
            f"read; rebuild it with `repro cache`"
        )
    raise TensorFormatError(
        f"{path}: not a shard cache; rebuild it with `repro cache`"
    )


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def _codec_workers(codec: _Codec, limit: int) -> int:
    """Threads that (de)compress ``codec`` frames: 1 means work inline."""
    if codec.name == "none":
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, limit))


def _row_nbytes(meta: dict) -> int:
    """Bytes of one row of a manifest array."""
    width = int(np.prod(meta["shape"][1:], dtype=np.int64))
    return np.dtype(meta["dtype"]).itemsize * width


def _manifest_dtype(dtype: np.dtype) -> str:
    """``dtype`` as a manifest spells it: its little-endian ``str``."""
    return np.dtype(dtype).newbyteorder("<").str


def _frame_filter(codec: _Codec) -> str:
    """The filter a new cache applies to ``codec`` frames."""
    return "none" if codec.name == "none" else "colshuffle"


def _shuffle_grid(shape: tuple, filter_name: str) -> tuple[int, int]:
    """(rows, columns) ``filter_name`` shuffles a frame of ``shape`` as:
    ``colshuffle`` keeps a 2-D frame's columns apart, anything else is one
    column of items."""
    if filter_name == "colshuffle" and len(shape) == 2:
        return int(shape[0]), int(shape[1])
    return int(np.prod(shape, dtype=np.int64)), 1


def _shuffle(arr: np.ndarray, filter_name: str) -> bytes:
    """Byte-shuffle ``arr``'s C-order items column by column: byte 0 of
    every item of column 0, then of column 1, ..., then byte 1, and so on
    (``shuffle`` and every 1-D frame have one column)."""
    items = np.ascontiguousarray(arr)
    rows, cols = _shuffle_grid(items.shape, filter_name)
    planes = items.view(np.uint8).reshape(rows, cols, items.itemsize)
    return planes.transpose(2, 1, 0).tobytes()


def _unshuffle(
    raw: bytes, dtype: np.dtype, shape: tuple, filter_name: str
) -> np.ndarray:
    """Inverse of :func:`_shuffle`: the ``dtype`` array of ``shape``, made
    by one transpose copy."""
    rows, cols = _shuffle_grid(shape, filter_name)
    planes = np.frombuffer(raw, dtype=np.uint8)
    planes = planes.reshape(dtype.itemsize, cols, rows)
    items = np.ascontiguousarray(planes.transpose(2, 1, 0))
    return items.view(dtype).reshape(shape)


def _compress_frame(
    codec: _Codec, filter_name: str, arr: np.ndarray
) -> tuple[bytes, int]:
    """One frame of ``arr`` and its CRC-32 (runs on a compress pool thread)."""
    raw = arr.tobytes() if filter_name == "none" else _shuffle(arr, filter_name)
    frame = codec.compress(raw, codec.level)
    return frame, zlib.crc32(frame) & 0xFFFFFFFF


def _decode_frame(
    codec: _Codec,
    filter_name: str,
    frame: bytes,
    raw_nbytes: int,
    dtype: np.dtype,
    shape: tuple,
) -> np.ndarray:
    """Decompress one frame and undo its filter: a read-only array.

    Raises a :class:`TensorFormatError` when the frame does not decompress
    to ``raw_nbytes``; a codec's own error propagates.
    """
    raw = codec.decompress(frame)
    if len(raw) != raw_nbytes:
        raise TensorFormatError(
            f"decompressed to {len(raw)} bytes, manifest says {raw_nbytes}; "
            f"the cache is corrupt"
        )
    if filter_name == "none":
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    # read-only like the frombuffer view: cached chunks are shared
    arr = _unshuffle(raw, dtype, shape, filter_name)
    arr.flags.writeable = False
    return arr


def _trim_heap() -> None:
    """Hand freed heap pages back to the OS (glibc ``malloc_trim``).

    Frames compressed on pool threads are freed into those threads'
    malloc arenas, which glibc keeps mapped; without a trim a process that
    builds caches repeatedly holds tens of MiB more resident than it uses.
    A no-op where ``malloc_trim`` does not exist.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


class _V2Writer:
    """Streams mode-sorted element blocks into chunk frames + manifest.

    Modes must be appended in order; within a mode, blocks arrive in final
    sorted order and are re-chunked at exactly ``chunk_nnz`` rows, so the
    produced bytes depend only on the logical element stream — the
    in-memory and external-sort builders therefore emit identical files.

    Frames are filtered and compressed on a small thread pool (see
    :func:`_codec_workers`) and written in submission order, so the file
    does not depend on the pool size; at most ``2 * workers`` raw frames
    are in flight. ``codec="none"`` frames are written into per-array
    regions reserved at :meth:`begin_mode` (sizes follow from ``nnz``), so
    every array's rows lie contiguous in the file.
    """

    def __init__(
        self,
        path: Path,
        shape: Sequence[int],
        nnz: int,
        *,
        codec: str = "zlib",
        chunk_nnz: int = DEFAULT_CHUNK_NNZ,
    ) -> None:
        chunk_nnz = int(chunk_nnz)
        if chunk_nnz < 1:
            raise TensorFormatError(
                f"chunk_nnz must be >= 1, got {chunk_nnz}"
            )
        self.path = Path(path)
        self.shape = tuple(int(s) for s in shape)
        self.nnz = int(nnz)
        self.nmodes = len(self.shape)
        #: dtype of every index and key frame (appended blocks are cast)
        self.index_dtype = index_dtype(self.shape)
        self.codec = _resolve_codec(codec)
        self.filter = _frame_filter(self.codec)
        self.chunk_nnz = chunk_nnz
        self._arrays: dict[str, dict] = {}
        # array name -> byte offset of its region (codec "none" only)
        self._regions: dict[str, int] = {}
        self._file = open(self.path, "wb")
        self._file.write(SHARD_CACHE_V2_MAGIC + b"\x00" * 8)
        self._offset = _HEADER_BYTES
        self._mode = -1
        self._buf_idx: list[np.ndarray] = []
        self._buf_val: list[np.ndarray] = []
        self._buffered = 0
        self._mode_rows = 0
        self._closed = False
        workers = _codec_workers(self.codec, _MAX_COMPRESS_WORKERS)
        self._pool = (
            ThreadPoolExecutor(workers, thread_name_prefix="repro-v2-compress")
            if workers > 1
            else None
        )
        self._max_in_flight = 2 * workers
        self._in_flight: deque = deque()

    # -- frame plumbing -------------------------------------------------
    def _emit_frame(self, name: str, lo: int, hi: int, arr: np.ndarray) -> None:
        args = (self.codec, self.filter, arr)
        if self._pool is None:
            self._write_frame(name, lo, hi, arr.nbytes, *_compress_frame(*args))
            return
        future = self._pool.submit(_compress_frame, *args)
        self._in_flight.append((name, lo, hi, arr.nbytes, future))
        while len(self._in_flight) >= self._max_in_flight:
            self._write_oldest()

    def _write_oldest(self) -> None:
        name, lo, hi, raw_nbytes, future = self._in_flight.popleft()
        self._write_frame(name, lo, hi, raw_nbytes, *future.result())

    def _write_frame(
        self, name: str, lo: int, hi: int, raw_nbytes: int, frame: bytes, crc: int
    ) -> None:
        meta = self._arrays[name]
        if name in self._regions:
            offset = self._regions[name] + lo * _row_nbytes(meta)
            self._file.seek(offset)
        else:
            offset = self._offset
            self._offset += len(frame)
        meta["chunks"].append(
            {
                "lo": lo,
                "hi": hi,
                "offset": offset,
                "nbytes": len(frame),
                "raw_nbytes": raw_nbytes,
                "crc32": crc,
            }
        )
        self._file.write(frame)

    def _join_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._in_flight.clear()
            _trim_heap()

    def _flush_chunk(self, rows: int) -> None:
        """Emit one chunk of exactly ``rows`` rows from the buffers."""
        idx = (
            self._buf_idx[0]
            if len(self._buf_idx) == 1
            else np.concatenate(self._buf_idx)
        )
        val = (
            self._buf_val[0]
            if len(self._buf_val) == 1
            else np.concatenate(self._buf_val)
        )
        take_i, rest_i = idx[:rows], idx[rows:]
        take_v, rest_v = val[:rows], val[rows:]
        lo, hi = self._mode_rows, self._mode_rows + rows
        m = self._mode
        # views: the frame's copy (raw bytes or their shuffle) is made on
        # the compress pool, and nothing writes to the buffers meanwhile
        self._emit_frame(f"mode{m}_indices", lo, hi, take_i)
        self._emit_frame(f"mode{m}_values", lo, hi, take_v)
        self._emit_frame(f"mode{m}_keys", lo, hi, take_i[:, m])
        self._mode_rows = hi
        self._buf_idx = [rest_i] if rest_i.shape[0] else []
        self._buf_val = [rest_v] if rest_v.shape[0] else []
        self._buffered = int(rest_i.shape[0])

    def _finish_mode(self) -> None:
        if self._mode < 0:
            return
        while self._buffered >= self.chunk_nnz:
            self._flush_chunk(self.chunk_nnz)
        if self._buffered:
            self._flush_chunk(self._buffered)
        if self._mode_rows != self.nnz:
            raise TensorFormatError(
                f"{self.path}: mode {self._mode} received {self._mode_rows} "
                f"elements, expected nnz={self.nnz}"
            )

    # -- public API -----------------------------------------------------
    def begin_mode(self, mode: int) -> None:
        self._finish_mode()
        if mode != self._mode + 1:
            raise TensorFormatError(
                f"modes must be written in order; got mode {mode} after "
                f"{self._mode}"
            )
        self._mode = mode
        self._mode_rows = 0
        self._buffered = 0
        self._buf_idx, self._buf_val = [], []
        coords = _manifest_dtype(self.index_dtype)
        for part, dtype, shape in (
            ("indices", coords, [self.nnz, self.nmodes]),
            ("values", "<f8", [self.nnz]),
            ("keys", coords, [self.nnz]),
        ):
            name = f"mode{mode}_{part}"
            self._arrays[name] = {"dtype": dtype, "shape": shape, "chunks": []}
            if self.codec.name == "none":
                start = -(-self._offset // _REGION_ALIGN) * _REGION_ALIGN
                self._regions[name] = start
                row = _row_nbytes(self._arrays[name])
                self._offset = start + self.nnz * row

    def append(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Append the next block of the current mode's sorted element list
        (indices in ``[0, extent)``; they are stored at ``index_dtype``)."""
        indices = np.ascontiguousarray(indices, dtype=self.index_dtype)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if indices.shape[0]:
            self._buf_idx.append(indices)
            self._buf_val.append(values)
            self._buffered += int(indices.shape[0])
        while self._buffered >= self.chunk_nnz:
            self._flush_chunk(self.chunk_nnz)

    def finish(self) -> Path:
        self._finish_mode()
        while self._in_flight:
            self._write_oldest()
        self._join_pool()
        if self._mode != self.nmodes - 1:
            raise TensorFormatError(
                f"{self.path}: only modes 0..{self._mode} written, expected "
                f"{self.nmodes} modes"
            )
        manifest = {
            "format": "repro-shard-cache-v2",
            "version": SHARD_CACHE_V2_VERSION,
            "codec": self.codec.name,
            "filter": self.filter,
            "level": self.codec.level,
            "chunk_nnz": self.chunk_nnz,
            "shape": list(self.shape),
            "nnz": self.nnz,
            "arrays": self._arrays,
        }
        payload = json.dumps(
            manifest, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        manifest_offset = self._offset
        self._file.seek(manifest_offset)
        self._file.write(payload)
        self._file.seek(len(SHARD_CACHE_V2_MAGIC))
        self._file.write(manifest_offset.to_bytes(8, "little"))
        self._file.close()
        self._closed = True
        return self.path

    def abort(self) -> None:
        self._join_pool()
        if not self._closed:
            self._file.close()
            self._closed = True
            self.path.unlink(missing_ok=True)


def write_shard_cache_v2(
    tensor: SparseTensorCOO,
    path,
    *,
    codec: str = "zlib",
    chunk_nnz: int = DEFAULT_CHUNK_NNZ,
) -> Path:
    """Serialize ``tensor`` as a v2 shard cache.

    For every mode the cache holds the stable mode-sorted element list
    (exactly the bytes :meth:`SparseTensorCOO.sorted_by_mode` produces, at
    the cache's index dtype) plus a contiguous key column, so a cache-backed
    run is bit-identical to the in-memory path.

    Returns the path actually written (``.npz`` suffix appended when the
    given path has no suffix — :func:`shard_cache_path`;
    readers check the content, not the suffix).
    """
    out = shard_cache_path(path)
    writer = _V2Writer(
        out, tensor.shape, tensor.nnz, codec=codec, chunk_nnz=chunk_nnz
    )
    try:
        # narrowed once, so every chunk gathers frame-width rows
        indices = tensor.indices.astype(writer.index_dtype, copy=False)
        for m in range(tensor.nmodes):
            writer.begin_mode(m)
            # one permutation per mode, gathered a chunk at a time: the
            # writer re-chunks the element stream anyway, so this writes the
            # bytes a whole sorted copy would without holding one
            order = tensor.mode_order(m)
            for lo in range(0, tensor.nnz, writer.chunk_nnz):
                rows = order[lo : lo + writer.chunk_nnz]
                writer.append(
                    np.take(indices, rows, axis=0), np.take(tensor.values, rows)
                )
        return writer.finish()
    except BaseException:
        writer.abort()
        raise


# ----------------------------------------------------------------------
# External-sort streaming builder
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamingBuildResult:
    """What :func:`write_shard_cache_streaming` built, and how big its
    working set actually got (tests assert ``peak_run_nnz`` stays inside
    the budget-derived ``run_nnz``)."""

    path: Path
    shape: tuple[int, ...]
    nnz: int
    n_runs: int
    run_nnz: int
    peak_run_nnz: int


class _PeakTracker:
    def __init__(self) -> None:
        self.peak = 0

    def see(self, elements: int) -> None:
        if elements > self.peak:
            self.peak = int(elements)


def _ingest_blocks(source, shape, max_nnz):
    """Yield ``(indices, values)`` blocks of the input in stream order.

    ``source`` is a ``.tns`` path (streamed line by line through
    :mod:`repro.tensor.io`'s ``.tns`` block parser) or an in-memory :class:`SparseTensorCOO` (sliced, no
    copies). The caller re-blocks to the run size.
    """
    from repro.tensor.io import _TNS_CHUNK_LINES, _tns_blocks

    if isinstance(source, SparseTensorCOO):
        if max_nnz is not None and source.nnz > max_nnz:
            raise TensorFormatError(
                f"tensor has {source.nnz} nonzeros, more than "
                f"max_nnz={max_nnz}"
            )
        step = _TNS_CHUNK_LINES
        for lo in range(0, source.nnz, step):
            yield source.indices[lo : lo + step], source.values[lo : lo + step]
        return
    yield from _tns_blocks(Path(source), max_nnz)


def _spill_input_segments(source, shape, max_nnz, run_nnz, tmp, track):
    """Pass 0: re-block the input into <= run_nnz unsorted segments on disk.

    Returns ``(segment paths, inferred shape, nnz)``. Only one segment of
    elements is ever resident.
    """
    seg_idx: list[np.ndarray] = []
    seg_val: list[np.ndarray] = []
    seg_rows = 0
    segments: list[tuple[Path, Path]] = []
    nnz = 0
    nmodes: int | None = None
    max_index: np.ndarray | None = None

    def flush() -> None:
        nonlocal seg_rows
        if not seg_rows:
            return
        idx = np.concatenate(seg_idx) if len(seg_idx) > 1 else seg_idx[0]
        val = np.concatenate(seg_val) if len(seg_val) > 1 else seg_val[0]
        track.see(idx.shape[0])
        ip = tmp / f"seg{len(segments)}_idx.npy"
        vp = tmp / f"seg{len(segments)}_val.npy"
        np.save(ip, np.ascontiguousarray(idx, dtype=np.int64))
        np.save(vp, np.ascontiguousarray(val, dtype=np.float64))
        segments.append((ip, vp))
        seg_idx.clear()
        seg_val.clear()
        seg_rows = 0

    for indices, values in _ingest_blocks(source, shape, max_nnz):
        if nmodes is None:
            nmodes = int(indices.shape[1])
            max_index = np.full(nmodes, -1, dtype=np.int64)
        if indices.shape[0]:
            np.maximum(max_index, indices.max(axis=0), out=max_index)
        nnz += int(indices.shape[0])
        pos = 0
        while pos < indices.shape[0]:
            take = min(run_nnz - seg_rows, indices.shape[0] - pos)
            seg_idx.append(indices[pos : pos + take])
            seg_val.append(values[pos : pos + take])
            seg_rows += take
            pos += take
            if seg_rows >= run_nnz:
                flush()
    flush()

    if shape is None:
        if nnz == 0:
            raise TensorFormatError(
                f"{source}: empty tensor input and no shape given"
            )
        shape = tuple(int(m) + 1 for m in max_index)
    else:
        shape = tuple(int(s) for s in shape)
        if nmodes is not None and len(shape) != nmodes:
            raise TensorFormatError(
                f"shape has {len(shape)} modes but input has {nmodes}"
            )
        if nnz and (max_index >= np.asarray(shape, dtype=np.int64)).any():
            raise TensorFormatError(
                f"index out of range for shape {shape} "
                f"(max={max_index.tolist()})"
            )
    return segments, shape, nnz


def _merge_sorted_runs(runs, mode, extent, block, emit, track):
    """Stable k-way merge of mode-sorted runs, in bounded blocks.

    Each run is a pair of ``.npy`` paths holding a stably mode-sorted
    segment, in input order (run *i* holds earlier input positions than run
    *i+1*). The merge preserves that order for equal keys — concatenating
    the runs' sub-frontier prefixes in run order and stable-sorting equals
    the global stable sort, which is what keeps the streamed cache
    byte-identical to the in-memory writer.
    """
    readers = [
        (np.load(ip, mmap_mode="r"), np.load(vp, mmap_mode="r"))
        for ip, vp in runs
    ]
    pos = [0] * len(readers)
    sizes = [int(idx.shape[0]) for idx, _ in readers]
    heads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(readers)

    def refill(i: int) -> None:
        if heads[i] is None and pos[i] < sizes[i]:
            idx_mm, val_mm = readers[i]
            hi = min(pos[i] + block, sizes[i])
            heads[i] = (
                np.asarray(idx_mm[pos[i] : hi]),
                np.asarray(val_mm[pos[i] : hi]),
            )

    def advance(i: int, rows: int) -> None:
        idx, val = heads[i]
        pos[i] += rows
        heads[i] = (
            (idx[rows:], val[rows:]) if rows < idx.shape[0] else None
        )

    while True:
        for i in range(len(readers)):
            refill(i)
        active = [i for i in range(len(readers)) if heads[i] is not None]
        if not active:
            return
        track.see(sum(heads[i][0].shape[0] for i in active))
        # Frontier: the smallest of the runs' head-block end keys. Keys
        # beyond any head are >= that head's last key, so elements with
        # key < frontier are complete in the current heads.
        frontier = min(int(heads[i][0][-1, mode]) for i in active)
        collect_i: list[np.ndarray] = []
        collect_v: list[np.ndarray] = []
        for i in active:
            idx, val = heads[i]
            n_below = int(
                np.searchsorted(idx[:, mode], frontier, side="left")
            )
            if n_below:
                collect_i.append(idx[:n_below])
                collect_v.append(val[:n_below])
                advance(i, n_below)
        if collect_i:
            idx = np.concatenate(collect_i)
            val = np.concatenate(collect_v)
            track.see(2 * idx.shape[0])
            order = stable_key_order(idx[:, mode], extent)
            emit(np.take(idx, order, axis=0), np.take(val, order))
        # Now stream every element equal to the frontier key, run by run
        # (run order == input order == stable order for equal keys).
        for i in range(len(readers)):
            while True:
                refill(i)
                if heads[i] is None:
                    break
                idx, val = heads[i]
                n_eq = int(
                    np.searchsorted(idx[:, mode], frontier, side="right")
                )
                if n_eq == 0:
                    break
                emit(idx[:n_eq], val[:n_eq])
                advance(i, n_eq)


def write_shard_cache_streaming(
    source,
    path,
    *,
    memory_budget: int,
    codec: str = "zlib",
    chunk_nnz: int = DEFAULT_CHUNK_NNZ,
    shape: Sequence[int] | None = None,
    max_nnz: int | None = None,
    tmp_dir=None,
) -> StreamingBuildResult:
    """Build a v2 shard cache by external sort, in O(memory_budget) memory.

    ``source`` is a FROSTT ``.tns`` path (streamed line by line, never
    materialized) or an in-memory :class:`SparseTensorCOO`. The build is a
    classic external merge sort, once per mode:

    1. **ingest** — re-block the input into unsorted disk segments of at
       most ``run_nnz = memory_budget // ((nmodes + 3) * 8)`` elements
       (one element costs ``nmodes*8 + 8`` bytes plus the sort
       permutation; the denominator charges all three);
    2. **run formation** — load one segment at a time, narrow it to the
       cache's index dtype, stable-sort it by the mode key, spill the
       sorted run;
    3. **k-way merge** — merge the runs in bounded blocks
       (``run_nnz // n_runs`` elements per run head) straight into the
       compressed chunk frames, preserving input order for equal keys.

    Stable runs + a stable merge reproduce the global stable sort exactly,
    so the output file is **byte-identical** to
    :func:`write_shard_cache_v2` of the fully materialized tensor — any
    budget, any run count (a hypothesis property pins this).

    Returns a :class:`StreamingBuildResult`; ``peak_run_nnz`` is the
    largest element count the builder ever held materialized (tracked so
    tests can assert the budget was honored).
    """
    import shutil
    import tempfile

    memory_budget = int(memory_budget)
    if memory_budget < 1:
        raise TensorFormatError(
            f"memory_budget must be a positive byte count, got {memory_budget}"
        )
    out = shard_cache_path(path)
    if isinstance(source, SparseTensorCOO) and shape is None:
        shape = source.shape  # preserve trailing empty slices exactly
    track = _PeakTracker()
    tmp = Path(tempfile.mkdtemp(prefix="repro-extsort-", dir=tmp_dir))
    writer: _V2Writer | None = None
    try:
        # Probe the mode count from the input head so the budget can be
        # priced per element before any segment is materialized.
        if isinstance(source, SparseTensorCOO):
            nmodes = source.nmodes
        else:
            first = next(_ingest_blocks(source, shape, max_nnz), None)
            if first is None:
                if shape is None:
                    raise TensorFormatError(
                        f"{source}: empty tensor input and no shape given"
                    )
                nmodes = len(tuple(shape))
            else:
                nmodes = int(first[0].shape[1])
        per_element = (nmodes + 3) * 8  # int64 row + float64 value + perm
        run_nnz = max(1, memory_budget // per_element)

        segments, out_shape, nnz = _spill_input_segments(
            source, shape, max_nnz, run_nnz, tmp, track
        )
        writer = _V2Writer(
            out, out_shape, nnz, codec=codec, chunk_nnz=chunk_nnz
        )
        n_runs = len(segments)
        for mode in range(len(out_shape)):
            writer.begin_mode(mode)
            runs: list[tuple[Path, Path]] = []
            for s, (ip, vp) in enumerate(segments):
                # segments are int64 (pass 0 may not know the shape yet);
                # runs are sorted and spilled at the cache's index width
                idx = np.load(ip).astype(writer.index_dtype, copy=False)
                val = np.load(vp)
                track.see(2 * idx.shape[0])  # segment + sort permutation
                order = stable_key_order(idx[:, mode], out_shape[mode])
                rip = tmp / f"run{mode}_{s}_idx.npy"
                rvp = tmp / f"run{mode}_{s}_val.npy"
                np.save(rip, np.take(idx, order, axis=0))
                np.save(rvp, np.take(val, order))
                runs.append((rip, rvp))
            if len(runs) == 1:
                idx = np.load(runs[0][0])
                val = np.load(runs[0][1])
                track.see(idx.shape[0])
                writer.append(idx, val)
            elif runs:
                block = max(1, run_nnz // len(runs))
                _merge_sorted_runs(
                    runs, mode, out_shape[mode], block, writer.append, track
                )
            for rip, rvp in runs:
                rip.unlink()
                rvp.unlink()
        built = writer.finish()
        writer = None
        return StreamingBuildResult(
            path=built,
            shape=out_shape,
            nnz=nnz,
            n_runs=n_runs,
            run_nnz=run_nnz,
            peak_run_nnz=track.peak,
        )
    except BaseException:
        if writer is not None:
            writer.abort()
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class ChunkedArray:
    """Lazy array view over one manifest entry's chunks.

    A mapped array (see the module docstring) hands out read-only slices of
    its map, after checking the CRC of every chunk the slice reaches that
    this reader has not served before. Otherwise slicing materializes only
    the chunks the row range covers (through the reader's LRU —
    double-buffered by default), so a streamed batch decompresses O(batch)
    bytes; with ``read_ahead`` set, a chunk that is not yet decoded also
    starts the next ``read_ahead`` chunks decoding in the background (see
    :meth:`ChunkedCacheReader.array`). ``np.asarray`` gives the whole array
    (planning-time key columns use this once per mode).
    """

    def __init__(
        self,
        reader: "ChunkedCacheReader",
        name: str,
        meta: dict,
        read_ahead: int = 0,
    ):
        self._reader = reader
        self.name = name
        self.read_ahead = read_ahead
        self.dtype = np.dtype(meta["dtype"])
        self.shape = tuple(int(s) for s in meta["shape"])
        self._chunks = meta["chunks"]
        # hi row of every chunk, for row -> chunk binary search
        self._his = [int(c["hi"]) for c in self._chunks]
        self._map = reader._maps.get(name)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize

    def __len__(self) -> int:
        return self.shape[0]

    def _rows(self, lo: int, hi: int) -> np.ndarray:
        """Materialize rows ``[lo, hi)`` from their covering chunks."""
        n = self.shape[0]
        lo = max(0, min(lo, n))
        hi = max(lo, min(hi, n))
        if hi == lo:
            return np.empty((0,) + self.shape[1:], dtype=self.dtype)
        first = bisect_right(self._his, lo)
        last = bisect_right(self._his, hi - 1)
        if self._map is not None:
            self._reader._verify(self.name, first, last)
            return self._map[lo:hi]
        if first == last:  # a view of the one cached chunk
            base = int(self._chunks[first]["lo"])
            chunk = self._reader._chunk(self.name, first, self.read_ahead)
            return chunk[lo - base : hi - base]
        # copy only the requested rows of each covering chunk
        out = np.empty((hi - lo,) + self.shape[1:], dtype=self.dtype)
        for i in range(first, last + 1):
            base = int(self._chunks[i]["lo"])
            a = max(lo, base)
            b = min(hi, int(self._chunks[i]["hi"]))
            chunk = self._reader._chunk(self.name, i, self.read_ahead)
            out[a - lo : b - lo] = chunk[a - base : b - base]
        return out

    def __getitem__(self, key):
        head, rest = (key[0], key[1:]) if isinstance(key, tuple) else (key, ())
        if isinstance(head, slice):
            start, stop, step = head.indices(self.shape[0])
            if step != 1:  # rare: materialize and defer to numpy
                return np.asarray(self)[key]
            out = self._rows(start, stop)
            if rest:
                out = out[(slice(None),) + rest]
            return out
        if isinstance(head, (int, np.integer)):
            i = int(head)
            if i < 0:
                i += self.shape[0]
            if not 0 <= i < self.shape[0]:
                raise IndexError(
                    f"index {head} out of range for {self.shape[0]} rows"
                )
            out = self._rows(i, i + 1)[0]
            return out[rest] if rest else out
        # boolean masks / fancy indexing: materialize (test paths only)
        return np.asarray(self)[key]

    def __array__(self, dtype=None, copy=None):
        out = self._rows(0, self.shape[0])
        return out if dtype is None else out.astype(dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChunkedArray({self.name!r}, shape={self.shape}, "
            f"dtype={self.dtype}, chunks={len(self._chunks)})"
        )


class ChunkedCacheReader:
    """Open v2 cache: manifest + checksum-verified lazy chunk access.

    Opening reads only the header and the JSON manifest, and maps the
    arrays whose raw chunks lie contiguous (see the module docstring): a
    mapped array's chunk is CRC-checked once, the first time a slice
    reaches it. Every other chunk frame is read, CRC-checked, and
    decompressed on demand. Decoded chunks live in one reader-wide LRU
    capped at ``cache_chunks`` chunks of a mode's indices and values (2 ==
    the chunk being reduced plus the next one — explicit double
    buffering). A read-ahead view (:meth:`array` with ``read_ahead``)
    decodes the next chunks of its array on a decode pool of at most
    :data:`_MAX_DECODE_WORKERS` threads, created on first use; those
    chunks count inside the cap, which grows by ``read_ahead`` chunks for
    that view's reads. Thread-safe: backend worker threads and the decode
    pool pull chunks concurrently. :meth:`close` cancels pending decodes
    and joins the pool.
    """

    def __init__(self, path, *, cache_chunks: int = DEFAULT_CHUNK_CACHE):
        cache_chunks = int(cache_chunks)
        if cache_chunks < 1:
            raise TensorFormatError(
                f"cache_chunks must be >= 1, got {cache_chunks}"
            )
        self.path = shard_cache_path(path)
        self.cache_chunks = cache_chunks
        _check_magic(self.path)
        self._file = open(self.path, "rb")
        self._lock = threading.Lock()
        header = self._file.read(_HEADER_BYTES)
        manifest_offset = int.from_bytes(
            header[len(SHARD_CACHE_V2_MAGIC) :], "little"
        )
        file_size = self.path.stat().st_size
        if not _HEADER_BYTES <= manifest_offset <= file_size:
            raise TensorFormatError(
                f"{self.path}: manifest pointer {manifest_offset} is outside "
                f"the file (size {file_size}); the cache is truncated or "
                f"corrupt — rebuild it"
            )
        self._file.seek(manifest_offset)
        try:
            self.manifest = json.loads(self._file.read().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TensorFormatError(
                f"{self.path}: corrupt v2 manifest: {exc}; rebuild the cache"
            ) from exc
        version = self.manifest.get("version")
        if version not in _READABLE_VERSIONS:
            raise TensorFormatError(
                f"{self.path}: shard cache version {version!r} unsupported "
                f"(this build reads versions {list(_READABLE_VERSIONS)})"
            )
        self.codec_name = str(self.manifest.get("codec"))
        self._codec = _resolve_codec(self.codec_name, origin=f"{self.path}: codec")
        # version 2 predates the filter: its frames are raw bytes
        self.filter = self.manifest.get("filter", "none" if version == 2 else None)
        if self.filter not in FRAME_FILTERS:
            raise TensorFormatError(
                f"{self.path}: unknown frame filter {self.filter!r} (this "
                f"build reads {list(FRAME_FILTERS)}); rebuild the cache"
            )
        self.shape = tuple(int(s) for s in self.manifest["shape"])
        self.nnz = int(self.manifest["nnz"])
        self.chunk_nnz = int(self.manifest["chunk_nnz"])
        self._meta = self.manifest["arrays"]
        missing = [
            f"mode{m}_{part}"
            for m in range(len(self.shape))
            for part in ("indices", "values", "keys")
            if f"mode{m}_{part}" not in self._meta
        ]
        if missing:
            raise TensorFormatError(
                f"{self.path}: v2 manifest is missing arrays {missing}; "
                f"rebuild the cache"
            )
        self._check_dtypes(version)
        # reader-wide LRU of decoded chunks, (array, chunk) -> array, or a
        # Future while a read-ahead decode is in flight; both count their
        # manifest raw size in _cached_nbytes
        self._cache: OrderedDict[tuple[str, int], np.ndarray | Future] = (
            OrderedDict()
        )
        self._cached_nbytes = 0
        # bytes of chunk_nnz elements: one chunk of indices plus one of values
        self._chunk_pair_nbytes = self.chunk_nnz * sum(
            _row_nbytes(self._meta[f"mode0_{part}"])
            for part in ("indices", "values")
        )
        self._decode_workers = _codec_workers(self._codec, _MAX_DECODE_WORKERS)
        self._pool: ThreadPoolExecutor | None = None
        # name -> read-only view of a mapped array's region, and a byte per
        # chunk that is 1 once its CRC has been checked
        self._maps: dict[str, np.ndarray] = {}
        self._verified: dict[str, bytearray] = {}
        self._map_arrays(file_size)

    def _map_arrays(self, file_size: int) -> None:
        """Map every array whose raw chunks lie contiguous, in row order,
        at an aligned region inside the file (see the module docstring)."""
        if self._codec.name != "none" or self.filter != "none":
            return
        regions = {}
        for name, meta in self._meta.items():
            chunks = meta["chunks"]
            if not chunks:
                continue
            row = _row_nbytes(meta)
            start = int(chunks[0]["offset"])
            rows = 0
            for c in chunks:
                lo, hi = int(c["lo"]), int(c["hi"])
                nbytes = (hi - lo) * row
                if not (
                    lo == rows
                    and int(c["offset"]) == start + lo * row
                    and int(c["nbytes"]) == int(c["raw_nbytes"]) == nbytes
                ):
                    break
                rows = hi
            else:
                end = start + rows * row
                if (
                    rows == int(meta["shape"][0])
                    and start % np.dtype(meta["dtype"]).itemsize == 0
                    and _HEADER_BYTES <= start
                    and end <= file_size
                ):
                    regions[name] = (start, end)
        if not regions:
            return
        whole = np.memmap(self.path, dtype=np.uint8, mode="r")
        for name, (start, end) in regions.items():
            meta = self._meta[name]
            self._maps[name] = (
                np.asarray(whole[start:end])
                .view(meta["dtype"])
                .reshape([int(s) for s in meta["shape"]])
            )
            self._verified[name] = bytearray(len(meta["chunks"]))

    def _check_dtypes(self, version: int) -> None:
        """Refuse, by array name, any dtype this reader would misdecode:
        values must be ``<f8``; a mode's indices and keys share one
        little-endian dtype of ``INDEX_DTYPES`` at least as wide as
        ``index_dtype(shape)``, and ``<i8`` before version 4."""
        coords = [_manifest_dtype(d) for d in INDEX_DTYPES]
        narrowest = coords.index(_manifest_dtype(index_dtype(self.shape)))
        # versions 2 and 3 predate narrow coordinates
        allowed = coords[narrowest:] if version >= 4 else ["<i8"]

        def refuse(name: str, why: str) -> None:
            raise TensorFormatError(
                f"{self.path}: array {name!r} has dtype "
                f"{self._meta[name].get('dtype')!r}, {why}; rebuild the cache"
            )

        for m in range(len(self.shape)):
            values = f"mode{m}_values"
            if self._meta[values].get("dtype") != "<f8":
                refuse(values, "expected '<f8'")
            indices, keys = f"mode{m}_indices", f"mode{m}_keys"
            dtype = self._meta[indices].get("dtype")
            if dtype not in allowed:
                refuse(
                    indices,
                    f"expected one of {allowed} for shape {list(self.shape)} "
                    f"in a version-{version} cache",
                )
            if self._meta[keys].get("dtype") != dtype:
                refuse(keys, f"expected the indices' {dtype!r}")

    @property
    def nmodes(self) -> int:
        return len(self.shape)

    @property
    def codec_ratio(self) -> float:
        """Measured compressed/raw byte ratio over every chunk in the cache.

        The numerator is the real on-disk bytes the manifest records (frame
        ``nbytes`` summed across all arrays). The denominator prices every
        array the way the host timing model does, with 8-byte coordinates
        whatever the cache stores (``raw_nbytes`` scaled by ``8 /
        itemsize``), so ``ratio * priced raw bytes`` is the bytes a staging
        read really moves. This is the number the staging-read term should
        use instead of the analytic per-codec default in
        :data:`repro.engine.costmodel.timing.DEFAULT_CODEC_RATIO`.
        """
        compressed = 0
        priced = 0
        for meta in self._meta.values():
            itemsize = np.dtype(meta["dtype"]).itemsize
            for chunk in meta["chunks"]:
                compressed += int(chunk["nbytes"])
                priced += int(chunk["raw_nbytes"]) // itemsize * 8
        if priced <= 0:
            return 1.0
        return compressed / priced

    def array_names(self) -> tuple[str, ...]:
        return tuple(self._meta)

    def array(self, name: str, *, read_ahead: int = 0) -> ChunkedArray:
        """A lazy view of array ``name``.

        ``read_ahead`` > 0 makes every chunk the view reaches that is not
        decoded yet start the next ``read_ahead`` chunks of the array
        decoding on the reader's pool, so a sequential consumer finds them
        ready (or in flight) instead of decoding inline. Bytes are the same
        either way. On one CPU there is no pool and every chunk decodes
        inline; a ``codec="none"`` cache has no pool either, and a mapped
        array ignores ``read_ahead``.
        """
        if name not in self._meta:
            raise TensorFormatError(
                f"{self.path}: no array {name!r} in this cache "
                f"(has {sorted(self._meta)})"
            )
        return ChunkedArray(self, name, self._meta[name], int(read_ahead))

    @property
    def cached_nbytes(self) -> int:
        """Decoded bytes held: cached chunks plus read-ahead in flight."""
        with self._lock:
            return self._cached_nbytes

    def _chunk(self, name: str, i: int, read_ahead: int = 0) -> np.ndarray:
        # The lock covers the cache and the file offset (shared state); CRC
        # and decompression run outside it so backend worker threads and
        # the decode pool genuinely overlap. Two threads may decode the
        # same chunk concurrently; both produce identical bytes and the
        # second store replaces the first.
        key = (name, i)
        with self._lock:
            self._check_open()
            entry = self._cache.get(key)
            if isinstance(entry, np.ndarray):
                self._cache.move_to_end(key)
                return entry
            if read_ahead and self._decode_workers > 1:
                self._submit_ahead(name, i, read_ahead)
        if entry is None:
            arr = self._load(name, i)
        else:
            try:
                arr = entry.result()
            except CancelledError:  # evicted or closed before it ran
                arr = self._load(name, i)
            except BaseException:
                with self._lock:
                    if self._cache.get(key) is entry:
                        self._drop(key)
                raise
        with self._lock:
            if self._file is not None:
                self._store(key, arr, self.cache_chunks + read_ahead)
        return arr

    def _check_open(self) -> None:
        if self._file is None:
            raise TensorFormatError(
                f"{self.path}: cache reader is closed; reopen with "
                f"load_shard_cache_v2()"
            )

    def _raw_nbytes(self, key: tuple[str, int]) -> int:
        name, i = key
        return int(self._meta[name]["chunks"][i]["raw_nbytes"])

    def _submit_ahead(self, name: str, i: int, depth: int) -> None:
        """Queue chunks ``i+1 .. i+depth`` of ``name`` (lock held)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                self._decode_workers, thread_name_prefix="repro-v2-decode"
            )
        n_chunks = len(self._meta[name]["chunks"])
        for j in range(i + 1, min(i + 1 + depth, n_chunks)):
            key = (name, j)
            if key not in self._cache:
                self._cache[key] = self._pool.submit(self._load, name, j)
                self._cached_nbytes += self._raw_nbytes(key)

    def _drop(self, key: tuple[str, int]) -> None:
        """Forget one cache entry, cancelling it if still queued (lock held)."""
        entry = self._cache.pop(key)
        self._cached_nbytes -= self._raw_nbytes(key)
        if isinstance(entry, Future):
            entry.cancel()

    def _store(self, key: tuple[str, int], arr: np.ndarray, chunks: int) -> None:
        """Cache a decoded chunk, then evict until the cache fits ``chunks``
        chunk pairs (lock held): decoded chunks go first, least recently
        used first, and read-ahead not yet consumed only after them."""
        if key in self._cache:
            self._drop(key)
        self._cache[key] = arr
        self._cached_nbytes += self._raw_nbytes(key)
        cap = chunks * self._chunk_pair_nbytes
        for kind in (np.ndarray, Future):
            victims = [
                k for k, v in self._cache.items()
                if isinstance(v, kind) and k != key
            ]
            for k in victims:
                if self._cached_nbytes <= cap:
                    return
                self._drop(k)

    def _load(self, name: str, i: int) -> np.ndarray:
        """Read, verify and decode one chunk frame."""
        meta = self._meta[name]
        chunk = meta["chunks"][i]
        with self._lock:
            self._check_open()
            self._file.seek(int(chunk["offset"]))
            frame = self._file.read(int(chunk["nbytes"]))
        where = self._check_frame(name, i, frame)
        rows = int(chunk["hi"]) - int(chunk["lo"])
        arr_shape = (rows,) + tuple(int(s) for s in meta["shape"][1:])
        try:
            return _decode_frame(
                self._codec, self.filter, frame, int(chunk["raw_nbytes"]),
                np.dtype(meta["dtype"]), arr_shape,
            )
        except TensorFormatError as exc:
            raise TensorFormatError(f"{where}: {exc}") from exc
        except Exception as exc:
            raise TensorFormatError(
                f"{where}: {self.codec_name} decompression failed: {exc}"
            ) from exc

    def _check_frame(self, name: str, i: int, frame) -> str:
        """Refuse chunk ``i`` of ``name`` when ``frame`` (its bytes as
        read) is short or fails its CRC; returns the chunk's name for
        later errors."""
        chunk = self._meta[name]["chunks"][i]
        where = f"{self.path}: array {name!r} chunk {i} (rows " \
                f"{chunk['lo']}..{chunk['hi']})"
        if len(frame) != int(chunk["nbytes"]):
            raise TensorFormatError(
                f"{where}: frame truncated — expected {chunk['nbytes']} "
                f"bytes, file holds {len(frame)}; the cache was cut "
                f"short, rebuild it"
            )
        crc = zlib.crc32(frame) & 0xFFFFFFFF
        if crc != int(chunk["crc32"]):
            raise TensorFormatError(
                f"{where}: checksum mismatch (crc32 {crc:#010x} != "
                f"manifest {int(chunk['crc32']):#010x}); the cache is "
                f"corrupt, rebuild it"
            )
        return where

    def _verify(self, name: str, first: int, last: int) -> None:
        """Check the CRC of every chunk ``first..last`` of mapped array
        ``name`` that this reader has not served yet. Lock-free: two
        threads may both check a chunk, and both set the same flag."""
        self._check_open()
        seen = self._verified[name]
        if seen.find(0, first, last + 1) < 0:
            return
        chunks = self._meta[name]["chunks"]
        whole = self._maps[name].reshape(-1).view(np.uint8)
        base = int(chunks[0]["offset"])
        for i in range(first, last + 1):
            if not seen[i]:
                start = int(chunks[i]["offset"]) - base
                self._check_frame(
                    name, i, whole[start : start + int(chunks[i]["nbytes"])]
                )
                seen[i] = 1

    def close(self) -> None:
        """Close the file, drop cached chunks and maps, cancel pending
        read-ahead and join the decode pool. Idempotent."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
            self._maps.clear()
            self._cache.clear()
            self._cached_nbytes = 0
            pool, self._pool = self._pool, None
        if pool is not None:  # joined outside the lock its decodes take
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ChunkedCacheReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChunkedCacheReader({str(self.path)!r}, shape={self.shape}, "
            f"nnz={self.nnz}, codec={self.codec_name!r}, "
            f"chunk_nnz={self.chunk_nnz})"
        )


def load_shard_cache_v2(
    path, *, cache_chunks: int = DEFAULT_CHUNK_CACHE
) -> ChunkedCacheReader:
    """Open a v2 chunked shard cache written by
    :func:`write_shard_cache_v2` / :func:`write_shard_cache_streaming`.

    Returns a :class:`ChunkedCacheReader`;
    :class:`repro.engine.CompressedChunkSource` is the structured consumer.
    A version-1 ``.npz`` cache is refused by name, with a pointer at
    ``repro cache`` to rebuild it.
    """
    return ChunkedCacheReader(path, cache_chunks=cache_chunks)
