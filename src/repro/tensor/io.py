"""Tensor I/O: FROSTT ``.tns`` text and the shard cache.

* **FROSTT ``.tns`` text** (Table 3 datasets): one nonzero per line,
  whitespace-separated 1-based indices followed by the value; ``#``/``%``
  lines are comments. :func:`read_tns` streams the file line by line so the
  transient footprint is one parse chunk plus the growing binary arrays
  (the previous implementation materialized the whole text *and* a string
  table, peaking at roughly 3x the file size).

* **Shard cache** (out-of-core streaming): the preprocessing output of §5.7
  serialized — one mode-sorted copy of the element list per mode, plus a
  contiguous per-mode key column so batch planning never touches the wide
  index block. The format lives in :mod:`repro.tensor.io_v2` and is
  re-exported here; :func:`write_shard_cache_streaming` converts a
  ``.tns`` download without materializing it.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.errors import TensorFormatError
from repro.tensor.coo import SparseTensorCOO
from repro.tensor.io_v2 import (
    CODEC_NAMES,
    DEFAULT_CHUNK_NNZ,
    SHARD_CACHE_V2_VERSION,
    ChunkedArray,
    ChunkedCacheReader,
    StreamingBuildResult,
    available_codecs,
    load_shard_cache_v2,
    shard_cache_path,
    write_shard_cache_streaming,
    write_shard_cache_v2,
)

__all__ = [
    "read_tns",
    "write_tns",
    # the shard cache (re-exported from repro.tensor.io_v2)
    "shard_cache_path",
    "SHARD_CACHE_V2_VERSION",
    "DEFAULT_CHUNK_NNZ",
    "CODEC_NAMES",
    "available_codecs",
    "write_shard_cache_v2",
    "write_shard_cache_streaming",
    "load_shard_cache_v2",
    "ChunkedCacheReader",
    "ChunkedArray",
    "StreamingBuildResult",
]

#: lines parsed per chunk by the streaming .tns reader
_TNS_CHUNK_LINES = 65536


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
        :func:`write_shard_cache_streaming` and streamed out of core.
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

