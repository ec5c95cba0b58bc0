"""Tensor I/O: FROSTT ``.tns`` text format and the binary shard cache.

Two on-disk representations are supported:

* **FROSTT ``.tns`` text** (Table 3 datasets): one nonzero per line,
  whitespace-separated 1-based indices followed by the value; ``#``/``%``
  lines are comments. :func:`read_tns` streams the file line by line so the
  transient footprint is one parse chunk plus the growing binary arrays
  (the previous implementation materialized the whole text *and* a string
  table, peaking at roughly 3x the file size).

* **Shard cache ``.npz``** (out-of-core streaming): the preprocessing output
  of §5.7 serialized — one mode-sorted copy of the element list per mode,
  plus a contiguous per-mode key column so batch planning never touches the
  wide index block. The archive is written *uncompressed*, which makes every
  member a plain ``.npy`` stored at a fixed file offset; :func:`load_shard_cache`
  exploits that to hand back true ``np.memmap`` views, so opening a cache
  reads only zip metadata and array headers — element pages are faulted in
  batch by batch as :class:`repro.engine.MmapNpzSource` streams them.
"""

from __future__ import annotations

import io
import zipfile
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.errors import TensorFormatError
from repro.tensor.coo import SparseTensorCOO

__all__ = [
    "read_tns",
    "write_tns",
    "tns_to_shard_cache",
    "write_shard_cache",
    "load_shard_cache",
    "shard_cache_path",
    "SHARD_CACHE_VERSION",
    # v2 chunked/compressed cache (re-exported from repro.tensor.io_v2)
    "SHARD_CACHE_V2_VERSION",
    "DEFAULT_CHUNK_NNZ",
    "CODEC_NAMES",
    "available_codecs",
    "detect_shard_cache_version",
    "write_shard_cache_v2",
    "write_shard_cache_streaming",
    "load_shard_cache_v2",
    "ChunkedCacheReader",
    "ChunkedArray",
    "StreamingBuildResult",
]

#: lines parsed per chunk by the streaming .tns reader
_TNS_CHUNK_LINES = 65536

#: bump when the shard-cache key layout changes (readers reject mismatches)
SHARD_CACHE_VERSION = 1


def _parse_tns_chunk(rows: list[list[str]], path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one chunk of split lines into (0-based indices, values)."""
    data = np.array(rows, dtype=np.float64)
    indices = data[:, :-1].astype(np.int64) - 1  # FROSTT is 1-based
    if (indices < 0).any():
        raise TensorFormatError(f"{path}: index below 1 (file must be 1-based)")
    return indices, data[:, -1]


def _tns_blocks(
    path, max_nnz: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream a ``.tns`` file as ``(0-based indices, values)`` blocks of at
    most :data:`_TNS_CHUNK_LINES` rows, in file order.

    The one ``.tns`` parser: :func:`read_tns` and the v2 external-sort
    builder both consume it. Blank and ``#``/``%`` comment lines are
    skipped, every line must carry the same number (>= 2) of columns, and
    the ``max_nnz`` guard raises as soon as the line count exceeds it.
    """
    if max_nnz is not None and max_nnz < 0:
        raise TensorFormatError(f"max_nnz must be >= 0, got {max_nnz}")
    buf: list[list[str]] = []
    width: int | None = None
    nnz = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            fields = line.split()
            if width is None:
                width = len(fields)
                if width < 2:
                    raise TensorFormatError(
                        f"{path}: lines must contain indices and a value"
                    )
            elif len(fields) != width:
                raise TensorFormatError(f"{path}: inconsistent column counts")
            nnz += 1
            if max_nnz is not None and nnz > max_nnz:
                raise TensorFormatError(
                    f"{path}: more than max_nnz={max_nnz} nonzeros; raise the "
                    f"guard, or build a shard cache with "
                    f"write_shard_cache_streaming() and stream it out of core"
                )
            buf.append(fields)
            if len(buf) >= _TNS_CHUNK_LINES:
                yield _parse_tns_chunk(buf, path)
                buf.clear()
    if buf:
        yield _parse_tns_chunk(buf, path)


def read_tns(
    path,
    *,
    shape: Sequence[int] | None = None,
    max_nnz: int | None = None,
) -> SparseTensorCOO:
    """Read a FROSTT ``.tns`` file, streaming it line by line.

    If ``shape`` is omitted it is inferred as the per-mode index maximum
    (the FROSTT convention).

    Parameters
    ----------
    max_nnz:
        Guard against accidentally materializing a tensor too large for
        memory: reading stops with a :class:`TensorFormatError` (a
        ``ReproError``) as soon as the line count exceeds it. Billion-scale
        FROSTT downloads should instead be converted once with
        :func:`tns_to_shard_cache` and streamed out of core.
    """
    idx_chunks: list[np.ndarray] = []
    val_chunks: list[np.ndarray] = []
    for indices, values in _tns_blocks(path, max_nnz):
        idx_chunks.append(indices)
        val_chunks.append(values)

    if not idx_chunks:
        if shape is None:
            raise TensorFormatError(f"{path}: empty tensor file and no shape given")
        return SparseTensorCOO(
            np.empty((0, len(shape)), dtype=np.int64),
            np.empty(0, dtype=np.float64),
            tuple(shape),
        )
    indices = idx_chunks[0] if len(idx_chunks) == 1 else np.concatenate(idx_chunks)
    values = val_chunks[0] if len(val_chunks) == 1 else np.concatenate(val_chunks)
    if shape is None:
        shape = tuple(int(m) + 1 for m in indices.max(axis=0))
    return SparseTensorCOO(indices, values, tuple(shape))


def write_tns(path, tensor: SparseTensorCOO, *, header: str | None = None) -> None:
    """Write ``tensor`` as 1-based FROSTT text, optionally with a # header."""
    buf = io.StringIO()
    if header:
        for line in header.splitlines():
            buf.write(f"# {line}\n")
    # widen first: a narrow (uint16) mode copy's 65,535 + 1 would wrap to 0
    ones = tensor.indices.astype(np.int64) + 1
    for row, val in zip(ones, tensor.values):
        buf.write(" ".join(str(int(i)) for i in row))
        buf.write(f" {float(val)!r}\n")
    Path(path).write_text(buf.getvalue())


# ----------------------------------------------------------------------
# Shard cache: mode-sorted copies in an uncompressed, mmap-able .npz
# ----------------------------------------------------------------------
def shard_cache_path(path) -> Path:
    """Normalize a cache path the way ``np.savez`` will write it.

    ``np.savez`` appends ``.npz`` to suffix-less paths; every consumer
    (:func:`load_shard_cache`, the CLI, ``MmapNpzSource``) must resolve
    user-supplied paths through this so writer and readers agree.
    """
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


def write_shard_cache(tensor: SparseTensorCOO, path) -> Path:
    """Serialize the per-mode sorted tensor copies for out-of-core streaming.

    For every mode *d* the cache stores the mode-*d* sorted element list
    (``mode{d}_indices``/``mode{d}_values``, exactly the bytes
    :meth:`SparseTensorCOO.sorted_by_mode` produces — so a cache-backed run
    is bit-identical to the in-memory path) plus the contiguous key column
    ``mode{d}_keys`` used for shard/batch planning. The archive is written
    uncompressed so :func:`load_shard_cache` can memory-map every member.

    Returns the path actually written (``.npz`` suffix appended if missing).
    """
    payload: dict[str, np.ndarray] = {
        "version": np.array([SHARD_CACHE_VERSION], dtype=np.int64),
        "shape": np.asarray(tensor.shape, dtype=np.int64),
        "nnz": np.array([tensor.nnz], dtype=np.int64),
    }
    for m in range(tensor.nmodes):
        sorted_t = tensor.sorted_by_mode(m)
        payload[f"mode{m}_indices"] = np.ascontiguousarray(
            sorted_t.indices, dtype=np.int64
        )
        payload[f"mode{m}_values"] = np.ascontiguousarray(
            sorted_t.values, dtype=np.float64
        )
        payload[f"mode{m}_keys"] = np.ascontiguousarray(sorted_t.indices[:, m])
    out = shard_cache_path(path)
    np.savez(out, **payload)
    return out


def tns_to_shard_cache(
    tns_path,
    cache_path,
    *,
    shape: Sequence[int] | None = None,
    max_nnz: int | None = None,
) -> Path:
    """Convert a FROSTT ``.tns`` download into a streamable shard cache."""
    tensor = read_tns(tns_path, shape=shape, max_nnz=max_nnz)
    return write_shard_cache(tensor, cache_path)


def _mmap_npz_member(path: Path, info: zipfile.ZipInfo) -> np.ndarray:
    """Memory-map one stored (uncompressed) ``.npy`` member of a zip archive.

    Zip stores each member's bytes contiguously after its local file header,
    so a stored ``.npy`` is a plain npy file at a fixed offset — exactly what
    ``np.memmap`` needs. Compressed members have no flat byte range to map.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        raise TensorFormatError(
            f"{path}: member {info.filename!r} is compressed and cannot be "
            f"memory-mapped; rebuild the cache with write_shard_cache()"
        )
    with open(path, "rb") as f:
        f.seek(info.header_offset)
        local_header = f.read(30)
        if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
            raise TensorFormatError(
                f"{path}: corrupt local header for member {info.filename!r}"
            )
        name_len = int.from_bytes(local_header[26:28], "little")
        extra_len = int.from_bytes(local_header[28:30], "little")
        f.seek(info.header_offset + 30 + name_len + extra_len)
        version = np.lib.format.read_magic(f)
        if version == (1, 0):
            arr_shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
        elif version == (2, 0):
            arr_shape, fortran, dtype = np.lib.format.read_array_header_2_0(f)
        else:
            raise TensorFormatError(
                f"{path}: unsupported .npy format version {version} in "
                f"member {info.filename!r}"
            )
        offset = f.tell()
    if int(np.prod(arr_shape, dtype=np.int64)) == 0:
        return np.empty(arr_shape, dtype=dtype)  # zero-size cannot be mapped
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=offset,
        shape=arr_shape,
        order="F" if fortran else "C",
    )


def load_shard_cache(path, *, mmap: bool = True) -> dict[str, np.ndarray]:
    """Open a shard cache written by :func:`write_shard_cache`.

    With ``mmap=True`` (the default) every array is a read-only
    ``np.memmap`` view — no element data is read until it is sliced. Returns
    the raw ``{key: array}`` mapping; :class:`repro.engine.MmapNpzSource` is
    the structured consumer.
    """
    path = shard_cache_path(path)
    if not path.is_file():
        raise TensorFormatError(
            f"shard cache {path} does not exist; build it with "
            f"write_shard_cache() / tns_to_shard_cache() "
            f"(CLI: `repro cache`)"
        )
    from repro.tensor.io_v2 import SHARD_CACHE_V2_MAGIC

    with open(path, "rb") as probe:
        head = probe.read(len(SHARD_CACHE_V2_MAGIC))
    if head == SHARD_CACHE_V2_MAGIC:
        raise TensorFormatError(
            f"{path}: found shard cache version 2 (chunked/compressed), "
            f"which the v1 mmap reader cannot open; use "
            f"CompressedChunkSource / load_shard_cache_v2(), or "
            f"AmpedMTTKRP.from_shard_cache which autodetects the format"
        )
    arrays: dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as zf:
            infos = zf.infolist()
            for info in infos:
                if not info.filename.endswith(".npy"):
                    raise TensorFormatError(
                        f"{path}: unexpected member {info.filename!r}; "
                        f"not a shard cache"
                    )
                if not mmap:
                    arrays[info.filename[: -len(".npy")]] = (
                        np.lib.format.read_array(
                            io.BytesIO(zf.read(info.filename))
                        )
                    )
    except zipfile.BadZipFile as exc:
        raise TensorFormatError(f"{path}: not a shard cache archive: {exc}") from exc
    if mmap:
        for info in infos:
            arrays[info.filename[: -len(".npy")]] = _mmap_npz_member(path, info)
    if "version" not in arrays or "shape" not in arrays:
        raise TensorFormatError(
            f"{path}: missing cache metadata; rebuild with write_shard_cache()"
        )
    version = int(np.asarray(arrays["version"]).ravel()[0])
    if version != SHARD_CACHE_VERSION:
        raise TensorFormatError(
            f"{path}: shard cache version {version} unsupported (expected "
            f"{SHARD_CACHE_VERSION}); rebuild with write_shard_cache()"
        )
    return arrays


# ----------------------------------------------------------------------
# Shard cache v2: chunked, compressed frames (see repro.tensor.io_v2)
# ----------------------------------------------------------------------
# Imported at the bottom: io_v2 uses shard_cache_path and the .tns chunk
# parser above, so this module must be fully defined first.
from repro.tensor.io_v2 import (  # noqa: E402
    CODEC_NAMES,
    DEFAULT_CHUNK_NNZ,
    SHARD_CACHE_V2_VERSION,
    ChunkedArray,
    ChunkedCacheReader,
    StreamingBuildResult,
    available_codecs,
    detect_shard_cache_version,
    load_shard_cache_v2,
    write_shard_cache_streaming,
    write_shard_cache_v2,
)
